#include "io/input_buffer.h"

#include <utility>

#include "base/file.h"
#include "obs/metrics.h"

namespace condtd {

Result<std::string> ReadDocument(const std::string& path) {
  obs::StageSpan io_span(obs::Stage::kIoRead);
  Result<std::string> content = ReadFileToString(path);
  if (content.ok()) {
    obs::CounterAdd(obs::Counter::kFilesRead, 1);
  } else {
    obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
  }
  return content;
}

Result<InputBuffer> InputBuffer::Open(const std::string& path) {
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  return FromString(std::move(content).value());
}

InputBuffer InputBuffer::FromString(std::string content) {
  InputBuffer buffer;
  buffer.content_ = std::move(content);
  return buffer;
}

}  // namespace condtd
