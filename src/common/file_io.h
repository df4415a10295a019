/**
 * @file
 * Crash-safe file output shared by every sidecar/artifact writer, and
 * the whole-file read every throwing file loader shares.
 *
 * A plain `std::ofstream out(path)` truncates the target immediately,
 * so an interrupt (Ctrl-C), a crash or `kill -9` mid-write leaves a
 * torn, unparseable file behind — fatal for JSON/JSONL sidecars that
 * downstream tooling (`mapp_cli report`, dashboards) parses strictly.
 * writeFileAtomic() instead writes a uniquely named temp file next to
 * the target and rename()s it into place: readers (and the next run)
 * only ever observe either the previous complete file or the new
 * complete file, never a prefix. The artifact cache pioneered this
 * discipline; every `--*-out` sidecar now shares it.
 */

#ifndef MAPP_COMMON_FILE_IO_H
#define MAPP_COMMON_FILE_IO_H

#include <string>
#include <string_view>

namespace mapp {

/**
 * Atomically replace @p path with @p contents: write a unique sibling
 * temp file (`<path>.tmp.<seq>.<pid>`), fsync-free close, then
 * rename() over the target. On any failure the temp file is removed
 * and the previous target (if any) is left untouched.
 *
 * Concurrent writers of the same path are safe: each uses its own temp
 * name and rename() is atomic, so the target always holds exactly one
 * writer's complete contents (last rename wins).
 *
 * @return true when the target now holds @p contents.
 */
bool writeFileAtomic(const std::string& path, std::string_view contents);

/**
 * Read all of @p path, byte for byte.
 * @throws mapp::InputError (ErrorCode::Io, located at @p path) with
 *         "cannot open file" or "read failed".
 */
std::string readWholeFile(const std::string& path);

}  // namespace mapp

#endif  // MAPP_COMMON_FILE_IO_H
