#ifndef CONDTD_BASE_FILE_H_
#define CONDTD_BASE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "base/status.h"

namespace condtd {

/// Reads an entire file into memory: the one file reader of the
/// project. Only regular files are accepted: directories fail with "is
/// a directory" and FIFOs/devices/sockets with "not a regular file".
/// Such paths are rejected by stat() without ever being opened; the
/// file is then opened O_NONBLOCK|O_NOCTTY and classified again with
/// fstat on that descriptor, so a path swapped in between can neither
/// block the caller on a writer-less FIFO nor hand it a controlling
/// terminal (the serve daemon hands client-supplied paths straight
/// here). Files larger than `max_bytes`, or than physical memory, fail
/// with ResourceExhausted before anything is allocated, as does a
/// failed allocation. Zero-size regular files that are not actually
/// empty (procfs/sysfs report st_size == 0) are read to EOF, under the
/// same cap.
Result<std::string> ReadFileToString(const std::string& path,
                                     size_t max_bytes = SIZE_MAX);

/// Writes `content` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path,
                         const std::string& content);

/// Creates `path` (and any missing parents) as a directory, mkdir -p
/// style. Succeeds if the directory already exists; fails when a
/// non-directory is in the way.
Status EnsureDirectory(const std::string& path);

}  // namespace condtd

#endif  // CONDTD_BASE_FILE_H_
