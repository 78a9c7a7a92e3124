#include "infer/engine.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "io/input_buffer.h"
#include "obs/metrics.h"

namespace condtd {

namespace {

/// Documents per hand-off at jobs > 1. Only the hand-off granularity
/// depends on it (document indices are assigned at submission), never
/// the output.
constexpr size_t kBatchDocs = 32;

std::atomic<IngestEngine::IngestFault> g_ingest_fault{nullptr};

Status AggregateErrors(
    const std::vector<IngestEngine::DocumentError>& errors) {
  if (errors.empty()) return Status::OK();
  if (errors.size() == 1) return errors.front().status;
  const IngestEngine::DocumentError& first = errors.front();
  return Status(first.status.code(),
                std::to_string(errors.size()) +
                    " documents failed to ingest (first: document " +
                    std::to_string(first.doc_index) + ": " +
                    first.status.message() + ")");
}

Status ContainedException(StreamingFolder* folder, std::string message) {
  folder->AbortDocument();
  obs::SchedAdd(obs::SchedCounter::kWorkerExceptions, 1);
  obs::CounterAdd(obs::Counter::kDocumentsFailed, 1);
  return Status::Internal(std::move(message));
}

/// The per-document step of both modes: `text` is the document, or its
/// path when `is_path` is set. Returns the document's status.
Status IngestDocument(StreamingFolder* folder, std::string_view text,
                     bool is_path, int64_t doc_index) {
  std::string content;
  if (is_path) {
    // At jobs > 1 this read runs on a worker, so file I/O overlaps the
    // other workers' parsing.
    Result<std::string> read = ReadDocument(std::string(text));
    if (!read.ok()) return read.status();
    content = std::move(read).value();
    text = content;
  }
  // Exception containment: a document that throws mid-fold
  // (std::bad_alloc on a pathological input, std::length_error from a
  // string resize, a throwing test fault) must not take down the
  // process — on a worker it would escape the thread entry point, and
  // inline it would escape to callers that do not catch (the CLI, daemon
  // recovery). The document is rolled back (AbortDocument undoes its
  // dedup-cache increments) and recorded as a DocumentError; names it
  // interned before throwing stay in the alphabet, as for a parse
  // failure.
  try {
    if (IngestEngine::IngestFault fault =
            g_ingest_fault.load(std::memory_order_acquire)) {
      fault(doc_index);
    }
    return folder->AddXml(text);
  } catch (const std::exception& e) {
    return ContainedException(
        folder,
        std::string("exception while ingesting document: ") + e.what());
  } catch (...) {
    return ContainedException(
        folder, "non-standard exception while ingesting document");
  }
}

}  // namespace

void IngestEngine::SetIngestFaultForTest(IngestFault fault) {
  g_ingest_fault.store(fault, std::memory_order_release);
}

IngestEngine::IngestEngine(Options options)
    : jobs_(std::max(1, options.jobs)),
      merged_(options.inference),
      folder_(&merged_) {
  if (jobs_ == 1) return;
  shards_.reserve(jobs_);
  workers_.reserve(jobs_);
  for (int t = 0; t < jobs_; ++t) {
    shards_.push_back(std::make_unique<Shard>(options.inference));
  }
  for (int t = 0; t < jobs_; ++t) {
    workers_.emplace_back(&IngestEngine::Worker, this, shards_[t].get());
  }
}

IngestEngine::~IngestEngine() { JoinWorkers(); }

Status IngestEngine::LoadState(std::string_view state) {
  return merged_.LoadState(state);
}

void IngestEngine::AddFile(const std::string& path) {
  Add(path, /*is_path=*/true);
}

void IngestEngine::AddXml(std::string_view xml) {
  Add(xml, /*is_path=*/false);
}

void IngestEngine::Add(std::string_view text, bool is_path) {
  int64_t doc_index = next_doc_index_++;
  if (jobs_ == 1) {
    Status status = IngestDocument(&folder_, text, is_path, doc_index);
    if (!status.ok()) errors_.push_back({doc_index, std::move(status)});
    return;
  }
  if (pending_ == nullptr) {
    pending_ = std::make_unique<Batch>();
    pending_->items.reserve(kBatchDocs);
  }
  pending_->items.push_back(
      {pending_->arena.Copy(text), doc_index, is_path});
  if (pending_->items.size() >= kBatchDocs) DispatchPending();
}

void IngestEngine::DispatchPending() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(pending_));
  }
  obs::SchedAdd(obs::SchedCounter::kBatchesDispatched, 1);
  ready_.notify_one();
}

void IngestEngine::JoinWorkers() {
  if (workers_.empty()) return;
  if (pending_ != nullptr) DispatchPending();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void IngestEngine::Worker(Shard* shard) {
  for (;;) {
    std::unique_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
      if (queue_.empty()) return;  // closed and drained
      batch = std::move(queue_.front());
      queue_.pop_front();
    }
    obs::SchedAdd(obs::SchedCounter::kBatchSteals, 1);
    for (const WorkItem& item : batch->items) {
      int before = shard->inferrer.alphabet()->size();
      ++shard->docs_ingested;
      Status status = IngestDocument(&shard->folder, item.text,
                                     item.is_path, item.doc_index);
      int after = shard->inferrer.alphabet()->size();
      if (after > before) {
        shard->new_names.push_back({item.doc_index, before, after});
      }
      if (!status.ok()) {
        shard->errors.push_back({item.doc_index, std::move(status)});
      }
    }
    obs::GaugeMax(obs::Gauge::kArenaBytesPeak,
                  static_cast<int64_t>(batch->arena.footprint()));
  }
}

Status IngestEngine::Finish() {
  if (!finished_) {
    finished_ = true;
    if (jobs_ == 1) {
      folder_.Flush();
    } else {
      JoinWorkers();
      MergeShards();
    }
  }
  return AggregateErrors(errors_);
}

void IngestEngine::MergeShards() {
  obs::StageSpan merge_span(obs::Stage::kShardMerge);

  // Replay newly-interned names in document-submission order so the
  // merged alphabet matches what the inline fold over the same corpus
  // would have interned. A name's global first occurrence is in the
  // earliest document containing it, and within that document the
  // shard-local log preserves first-encounter order, so the replay
  // reproduces the inline id assignment exactly.
  struct Replay {
    int64_t doc_index;
    const Shard* shard;
    int first;
    int last;
  };
  std::vector<Replay> replays;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    for (const Shard::NewNames& record : shard->new_names) {
      replays.push_back(
          {record.doc_index, shard.get(), record.first, record.last});
    }
  }
  std::sort(replays.begin(), replays.end(),
            [](const Replay& a, const Replay& b) {
              return a.doc_index < b.doc_index;
            });
  Alphabet* alphabet = merged_.alphabet();
  for (const Replay& replay : replays) {
    const Alphabet& shard_alphabet = replay.shard->inferrer.alphabet();
    for (int s = replay.first; s < replay.last; ++s) {
      alphabet->Intern(shard_alphabet.Name(s));
    }
  }

  // Drain each shard's dedup cache, then combine the shard stores with
  // a pairwise merge tree: in each round shard i absorbs shard
  // i+stride, independent pairs running on their own threads, and the
  // surviving shard merges into `merged_` last. Summaries are
  // associative, so the tree shape cannot change the result — it only
  // turns the O(k) serial merge chain into O(log k) parallel rounds.
  // Total MergeFrom count is unchanged: (k-1) pair merges + 1 final.
  std::vector<Shard*> live;
  live.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    shard->folder.Flush();
    obs::GaugeMax(obs::Gauge::kShardDocsMax, shard->docs_ingested);
    for (DocumentError& error : shard->errors) {
      errors_.push_back(std::move(error));
    }
    live.push_back(shard.get());
  }
  for (size_t stride = 1; stride < live.size(); stride *= 2) {
    std::vector<std::thread> mergers;
    for (size_t i = 0; i + stride < live.size(); i += 2 * stride) {
      Shard* into = live[i];
      Shard* from = live[i + stride];
      if (i + 2 * stride < live.size()) {
        mergers.emplace_back([into, from] {
          into->inferrer.MergeFrom(from->inferrer);
          obs::SchedAdd(obs::SchedCounter::kShardMerges, 1);
        });
      } else {
        // Last pair of the round runs inline — no thread spawn for it.
        into->inferrer.MergeFrom(from->inferrer);
        obs::SchedAdd(obs::SchedCounter::kShardMerges, 1);
      }
    }
    for (std::thread& merger : mergers) merger.join();
  }
  merged_.MergeFrom(live.front()->inferrer);
  obs::SchedAdd(obs::SchedCounter::kShardMerges, 1);
  shards_.clear();
  std::sort(errors_.begin(), errors_.end(),
            [](const DocumentError& a, const DocumentError& b) {
              return a.doc_index < b.doc_index;
            });
}

}  // namespace condtd
