#ifndef CALYX_SUPPORT_FILE_H
#define CALYX_SUPPORT_FILE_H

#include <string>

namespace calyx {

/** mkdir -p: create `path` and every missing parent. False on failure. */
bool makeDirs(const std::string &path);

/**
 * Write `data` to `path`, replacing it. False when the file cannot be
 * opened, a byte is not written, or the close fails (a full disk, a
 * file-size limit); the partial file is removed then.
 */
bool writeFile(const std::string &path, const std::string &data);

/**
 * An on-disk cache directory: $`env` when set and non-empty, else
 * $XDG_CACHE_HOME/`leaf`, else $HOME/.cache/`leaf`, else /tmp/`leaf`.
 */
std::string cacheDir(const char *env, const std::string &leaf);

} // namespace calyx

#endif // CALYX_SUPPORT_FILE_H
