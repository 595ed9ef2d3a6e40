#include "serve_client.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/error.h"
#include "support/time.h"

extern char **environ;

namespace calyx::bench {

ServeClient::ServeClient(const std::vector<std::string> &argv,
                         const std::string &log_path)
{
    int in[2], out[2];
    if (pipe2(in, O_CLOEXEC) != 0)
        fatal("serve client: pipe: ", std::strerror(errno));
    if (pipe2(out, O_CLOEXEC) != 0) {
        close(in[0]);
        close(in[1]);
        fatal("serve client: pipe: ", std::strerror(errno));
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    close(in[0]);
    close(out[1]);
    if (rc != 0) {
        close(in[1]);
        close(out[0]);
        pid = -1;
        fatal("serve client: cannot spawn ", argv[0], ": ",
              std::strerror(rc));
    }
    toChild = in[1];
    fromChild = out[0];
}

ServeClient::~ServeClient()
{
    if (pid > 0)
        killAndReap();
    if (toChild >= 0)
        close(toChild);
    if (fromChild >= 0)
        close(fromChild);
}

bool
ServeClient::fill(double deadline, std::string &error)
{
    double left = deadline - nowSeconds();
    if (left <= 0) {
        error = "no response before the timeout";
        return false;
    }
    pollfd p{fromChild, POLLIN, 0};
    int rc = poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR)
        return true;
    if (rc <= 0) {
        error = rc == 0 ? "no response before the timeout"
                        : std::string("poll: ") + std::strerror(errno);
        return false;
    }
    char chunk[1 << 16];
    ssize_t n = read(fromChild, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR)
        return true;
    if (n <= 0) {
        error = n == 0 ? "server closed its output (crashed or exited)"
                       : std::string("read: ") + std::strerror(errno);
        return false;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    return true;
}

bool
ServeClient::exchange(const std::string &payload, std::string &response,
                      double timeout, std::string &error)
{
    if (toChild < 0 || fromChild < 0) {
        error = "server is not running";
        return false;
    }
    std::string frame = std::to_string(payload.size()) + "\n" + payload;
    for (size_t off = 0; off < frame.size();) {
        ssize_t n = write(toChild, frame.data() + off, frame.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            error = std::string("write: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<size_t>(n);
    }
    double deadline = nowSeconds() + timeout;
    size_t nl;
    while ((nl = buffer.find('\n')) == std::string::npos) {
        if (buffer.size() > 24) {
            error = "malformed frame length";
            return false;
        }
        if (!fill(deadline, error))
            return false;
    }
    size_t length = 0;
    for (size_t i = 0; i < nl; ++i) {
        if (buffer[i] < '0' || buffer[i] > '9') {
            error = "malformed frame length";
            return false;
        }
        length = length * 10 + static_cast<size_t>(buffer[i] - '0');
    }
    while (buffer.size() < nl + 1 + length) {
        if (!fill(deadline, error))
            return false;
    }
    response.assign(buffer, nl + 1, length);
    buffer.erase(0, nl + 1 + length);
    return true;
}

int
ServeClient::finish(double timeout)
{
    if (pid <= 0)
        return exitCode;
    if (toChild >= 0) {
        close(toChild);
        toChild = -1;
    }
    double deadline = nowSeconds() + timeout;
    for (;;) {
        int status = 0;
        pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid) {
            pid = -1;
            exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            return exitCode;
        }
        if (r < 0 && errno != EINTR) {
            pid = -1;
            return exitCode;
        }
        if (nowSeconds() > deadline) {
            killAndReap();
            return exitCode;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

void
ServeClient::killAndReap()
{
    kill(pid, SIGKILL);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    exitCode = -1;
    pid = -1;
}

} // namespace calyx::bench
