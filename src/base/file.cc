#include "base/file.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <new>
#include <stdexcept>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

namespace condtd {

namespace {

/// Closes the descriptor on every return path.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

/// read() that retries on EINTR. Returns bytes read, 0 at EOF, -1 on
/// error.
ssize_t ReadSome(int fd, char* out, size_t n) {
  ssize_t got;
  do {
    got = ::read(fd, out, n);
  } while (got < 0 && errno == EINTR);
  return got;
}

/// The error for a path that is not a regular file.
Status NotRegularFile(const std::string& path, const struct stat& st) {
  if (S_ISDIR(st.st_mode)) {
    return Status::InvalidArgument("is a directory: " + path);
  }
  return Status::InvalidArgument(
      "not a regular file (fifo/device/socket): " + path);
}

/// Installed RAM, or SIZE_MAX when the system does not say.
size_t PhysicalMemoryBytes() {
  long pages = ::sysconf(_SC_PHYS_PAGES);
  long page_size = ::sysconf(_SC_PAGESIZE);
  if (pages <= 0 || page_size <= 0) return SIZE_MAX;
  return static_cast<size_t>(pages) * static_cast<size_t>(page_size);
}

/// Smallest step by which the buffer grows past st_size.
constexpr size_t kGrowBytes = size_t{1} << 16;

}  // namespace

Result<std::string> ReadFileToString(const std::string& path,
                                     size_t max_bytes) {
  // Paths that are not regular files are turned away before open():
  // opening a tty, tape or watchdog device has side effects of its own.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return NotRegularFile(path, st);
  }
  // O_NONBLOCK so that open() can never hang on a writer-less FIFO (the
  // daemon receives arbitrary client paths) and O_NOCTTY so a tty can
  // never become the caller's controlling terminal, should the path be
  // swapped for one after the stat() above. The class is then checked
  // again on this very descriptor, so a swapped path cannot slip a FIFO
  // or device past the read.
  int fd =
      ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_NOCTTY | O_CLOEXEC);
  if (fd < 0) {
    // Sockets (and devices without a driver) cannot be opened at all.
    if (errno == ENXIO) {
      return Status::InvalidArgument(
          "not a regular file (fifo/device/socket): " + path);
    }
    return Status::NotFound("cannot open file: " + path);
  }
  FdCloser closer(fd);
  if (::fstat(fd, &st) != 0) {
    return Status::InvalidArgument("error while reading: " + path);
  }
  if (!S_ISREG(st.st_mode)) return NotRegularFile(path, st);
  // A file larger than physical memory cannot be held in memory at any
  // cap; refusing it up front keeps a huge sparse file from being
  // allocated (and zero-filled) under an overcommitting kernel.
  const size_t cap = std::min(max_bytes, PhysicalMemoryBytes());
  const size_t size = static_cast<size_t>(st.st_size);
  if (size > cap) {
    return Status::ResourceExhausted(
        "file of " + std::to_string(size) + " bytes exceeds the " +
        std::to_string(cap) + "-byte cap: " + path);
  }
  // One read-to-EOF loop for every regular file. The buffer is presized
  // to st_size plus one spare byte, so an ordinary file arrives in one
  // read() (a single copy from the page cache) and the next read() sees
  // EOF without growing it; files that report st_size == 0 but are not
  // empty (procfs/sysfs) grow it, never past cap + 1 bytes.
  const size_t limit = cap < SIZE_MAX ? cap + 1 : cap;
  std::string content;
  size_t filled = 0;
  try {
    content.resize(size + 1);
    for (;;) {
      if (filled == content.size()) {
        if (filled > cap) {
          return Status::ResourceExhausted(
              "file exceeds the " + std::to_string(cap) +
              "-byte cap: " + path);
        }
        content.resize(std::min(std::max(2 * filled, kGrowBytes), limit));
      }
      ssize_t got =
          ReadSome(fd, content.data() + filled, content.size() - filled);
      if (got < 0) {
        return Status::InvalidArgument("error while reading: " + path);
      }
      if (got == 0) break;
      filled += static_cast<size_t>(got);
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("out of memory reading: " + path);
  } catch (const std::length_error&) {
    return Status::ResourceExhausted("out of memory reading: " + path);
  }
  content.resize(filled);
  return content;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open file for writing: " + path);
  }
  out << content;
  out.flush();
  if (!out) {
    return Status::InvalidArgument("error while writing: " + path);
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  if (path.empty()) {
    return Status::InvalidArgument("empty directory path");
  }
  // Walk the components left to right, creating what is missing.
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = path.find('/', pos + 1);
    std::string prefix = path.substr(0, pos);
    if (prefix.empty() || prefix == "/" || prefix == ".") continue;
    if (::mkdir(prefix.c_str(), 0777) == 0) continue;
    struct stat st;
    if (::stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
      return Status::InvalidArgument("cannot create directory: " + prefix);
    }
  }
  return Status::OK();
}

}  // namespace condtd
