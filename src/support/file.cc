#include "support/file.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>
#include <unistd.h>

namespace calyx {

bool
makeDirs(const std::string &path)
{
    // Create each prefix, tolerating already-exists.
    for (size_t i = 1; i <= path.size(); ++i) {
        if (i != path.size() && path[i] != '/')
            continue;
        std::string prefix = path.substr(0, i);
        if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

bool
writeFile(const std::string &path, const std::string &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
    // Close even after a short write: buffered bytes fail here too.
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        ::unlink(path.c_str());
    return ok;
}

std::string
cacheDir(const char *env, const std::string &leaf)
{
    if (const char *dir = std::getenv(env); dir && *dir)
        return dir;
    if (const char *xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
        return std::string(xdg) + "/" + leaf;
    if (const char *home = std::getenv("HOME"); home && *home)
        return std::string(home) + "/.cache/" + leaf;
    return "/tmp/" + leaf;
}

} // namespace calyx
