#ifndef CALYX_BENCHMARK_SERVE_CLIENT_H
#define CALYX_BENCHMARK_SERVE_CLIENT_H

#include <string>
#include <vector>

#include <sys/types.h>

namespace calyx::bench {

/**
 * A `futil --serve` child process driven over pipes with the serve wire
 * framing (serve/protocol.h: decimal length, '\n', payload). One
 * connection, one request in flight: the benchmark's closed loop. The
 * child's stderr goes to a log file. The destructor kills and reaps a
 * child that is still running, so no process outlives the client.
 */
class ServeClient
{
  public:
    ServeClient(const std::vector<std::string> &argv,
                const std::string &log_path);
    ~ServeClient();

    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Write one request frame and read one whole response frame. False
     * when the child is gone, the framing is broken, or no complete
     * answer arrives within `timeout` seconds; `error` then says which.
     */
    bool exchange(const std::string &payload, std::string &response,
                  double timeout, std::string &error);

    /** Close the child's stdin and reap it, killing it after `timeout`
     * seconds. Returns its exit code, or -1 when it died on a signal or
     * had to be killed. Idempotent. */
    int finish(double timeout);

    /** The child's process id; -1 once it has been reaped. */
    pid_t processId() const { return pid; }

  private:
    bool fill(double deadline, std::string &error);
    void killAndReap();

    pid_t pid = -1;
    int toChild = -1;
    int fromChild = -1;
    std::string buffer; ///< Bytes read from the child, not yet framed.
    int exitCode = -1;
};

} // namespace calyx::bench

#endif // CALYX_BENCHMARK_SERVE_CLIENT_H
