#ifndef CONDTD_IO_INPUT_BUFFER_H_
#define CONDTD_IO_INPUT_BUFFER_H_

#include <string>
#include <string_view>

#include "base/status.h"

namespace condtd {

/// Reads one corpus document for the ingestion pipeline: the whole file
/// through ReadFileToString (base/file.h), timed as the io_read stage
/// and counted as files_read, or as documents_failed when the open or
/// read fails. IngestEngine reads every file here, inline at jobs=1 and
/// on its workers otherwise, so `--stats` reports the same failures and
/// io_read spans at every `--jobs` value.
Result<std::string> ReadDocument(const std::string& path);

/// An owned document buffer: the bytes of one file (read whole through
/// ReadFileToString) or of a caller's string, exposed as a
/// `string_view` for the lexer. Movable; views derived from `view()`
/// must not outlive the InputBuffer.
class InputBuffer {
 public:
  /// Reads `path` whole. Errors are ReadFileToString's: "cannot open
  /// file", "is a directory", "not a regular file", "error while
  /// reading".
  static Result<InputBuffer> Open(const std::string& path);

  /// Wraps an already-owned string (stdin slurp, tests).
  static InputBuffer FromString(std::string content);

  /// The document bytes. Valid for the lifetime of this InputBuffer.
  std::string_view view() const { return content_; }

  /// Always false: every file is read into an owned buffer.
  bool is_mapped() const { return false; }

 private:
  std::string content_;
};

}  // namespace condtd

#endif  // CONDTD_IO_INPUT_BUFFER_H_
