#include "infer/engine.h"

#include <utility>

#include "io/input_buffer.h"

namespace condtd {

IngestEngine::IngestEngine(Options options) : options_(std::move(options)) {
  if (options_.jobs != 1) {
    parallel_.emplace(options_.inference, options_.jobs);
  } else {
    sequential_.emplace(options_.inference);
  }
}

Status IngestEngine::LoadState(std::string_view state) {
  if (parallel_) return parallel_->LoadState(state);
  return sequential_->inferrer.LoadState(state);
}

void IngestEngine::AddFile(const std::string& path) {
  int64_t index = next_doc_index_++;
  if (parallel_) {
    parallel_->AddFile(path);
    return;
  }
  Result<std::string> content = ReadDocument(path);
  if (!content.ok()) {
    errors_.push_back({index, content.status()});
    return;
  }
  Status status = sequential_->folder.AddXml(*content);
  if (!status.ok()) errors_.push_back({index, status});
}

void IngestEngine::AddXml(std::string_view xml) {
  int64_t index = next_doc_index_++;
  if (parallel_) {
    parallel_->AddXml(xml);
    return;
  }
  Status status = sequential_->folder.AddXml(xml);
  if (!status.ok()) errors_.push_back({index, status});
}

Status IngestEngine::Finish() {
  if (!finished_) {
    finished_ = true;
    if (parallel_) {
      parallel_->Finish();
      errors_ = parallel_->errors();
    } else {
      sequential_->folder.Flush();
    }
  }
  return ParallelDtdInferrer::AggregateErrors(errors_);
}

DtdInferrer& IngestEngine::inferrer() {
  return parallel_ ? *parallel_->merged() : sequential_->inferrer;
}

int IngestEngine::infer_threads() const {
  return parallel_ ? parallel_->num_threads() : 1;
}

}  // namespace condtd
