#ifndef CONDTD_INFER_ENGINE_H_
#define CONDTD_INFER_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/arena.h"
#include "base/status.h"
#include "infer/inferrer.h"
#include "infer/streaming.h"

namespace condtd {

/// The one batch ingestion engine behind every corpus-shaped consumer:
/// the CLI's `infer` subcommand and the serve daemon's journal replay
/// both feed documents through this class.
///
/// Every document goes through one per-document step: read the file
/// (when the item is a path), run the test fault hook, and fold it with
/// a StreamingFolder, containing any exception as a DocumentError. At
/// `jobs == 1` the step runs inline on the caller's thread, folding
/// straight into the merged inferrer — no thread, no shard, no merge.
/// At `jobs > 1` a fixed pool of `jobs` workers runs it, each worker
/// owning a shard-local DtdInferrer (own alphabet, own summaries, no
/// locks on the parse/fold hot path). The caller stages documents into
/// batches of kBatchDocs (copied bytes bump-allocated in the batch's
/// arena) and hands whole batches to the workers through a FIFO under
/// the same mutex that parks them: one hand-off per batch, not per
/// document. `AddFile` stages just the path, so the worker reads the
/// file and I/O overlaps parsing across the pool. Finish() is the
/// barrier: join the pool, replay the shard alphabets in document
/// order, and combine the shards with a pairwise merge tree.
///
/// Determinism contract: for a well-formed corpus the inferred DTD is
/// byte-identical at any `jobs`, for any batch boundary and any
/// scheduling (pinned by parallel_test and differential_test). Two
/// ingredients make that hold:
///  * at the barrier the merged alphabet is rebuilt by replaying each
///    document's newly-seen names in document-submission order, which
///    reproduces the inline interning order exactly (symbol ids are the
///    tie-breakers throughout the learners), and
///  * every ElementSummary field is associative under
///    SummaryStore::MergeFrom, so the merge tree may combine shards in
///    any shape; `Gfa::FromSoa` canonicalizes state numbering.
/// The SaveState text is byte-identical to the sequential fold's at
/// jobs=1 only. At jobs > 1 it holds the same summaries, but a merged
/// SOA lists its states in the order the shards delivered them, and an
/// element past `max_text_samples` keeps each shard's first samples
/// rather than the corpus's, so XSD simple-type picks may differ on
/// heterogeneous text; the DTD never does.
///
/// Error model (both modes): per-document failures never stop the
/// pipeline; they are recorded against the document's 0-based
/// submission index and surfaced together at Finish(), which returns
/// OK only when every document folded cleanly. Single producer: call
/// AddFile/AddXml/LoadState/Finish from one thread.
class IngestEngine {
 public:
  struct Options {
    InferenceOptions inference;
    /// 1 = fold inline on the caller's thread; N > 1 = N worker shards.
    int jobs = 1;
  };

  struct DocumentError {
    int64_t doc_index = 0;
    Status status;
  };

  explicit IngestEngine(Options options);
  ~IngestEngine();

  IngestEngine(const IngestEngine&) = delete;
  IngestEngine& operator=(const IngestEngine&) = delete;

  /// Merges a previously saved summary state ahead of the corpus
  /// (Section 9 incremental pipelines): its names intern first, as in a
  /// LoadState-then-AddXml run. Call before adding documents.
  Status LoadState(std::string_view state);

  /// Ingests one document by path; the engine reads it itself through
  /// ReadDocument (io/input_buffer.h) — inline at jobs=1, on the worker
  /// otherwise. Read failures surface in errors() like parse failures.
  void AddFile(const std::string& path);

  /// Ingests one document given as text (copied into a batch at
  /// jobs > 1).
  void AddXml(std::string_view xml);

  /// The barrier: drains the pipeline (jobs > 1: dispatch, join,
  /// deterministic merge), flushes the dedup caches, and reports the
  /// aggregate status. Idempotent. OK when every document folded
  /// cleanly; with one failure, that document's status; with several,
  /// the first failure's code with a message naming the failure count
  /// and the lowest failed index.
  Status Finish();

  /// All ingestion failures (read failures, parse errors and contained
  /// exceptions), ascending by document index (valid after Finish()).
  const std::vector<DocumentError>& errors() const { return errors_; }

  /// The merged inferrer (valid after Finish()): infer from it, save
  /// its state, or adopt it into an IngestSession.
  DtdInferrer& inferrer() { return merged_; }

  /// Thread count for the per-element learner fan-out that matches this
  /// engine's configuration.
  int infer_threads() const { return jobs_; }

  /// Test seam: a hook invoked with each document's submission index
  /// just before the document is folded, on whichever thread runs the
  /// per-document step. A test installs a throwing hook to exercise the
  /// exception containment (the exception becomes a DocumentError and
  /// the remaining documents keep folding). Process-wide; pass nullptr
  /// to uninstall. Not for production use.
  using IngestFault = void (*)(int64_t doc_index);
  static void SetIngestFaultForTest(IngestFault fault);

 private:
  /// One worker's private fold state (jobs > 1).
  struct Shard {
    explicit Shard(const InferenceOptions& options)
        : inferrer(options), folder(&inferrer) {}
    DtdInferrer inferrer;
    StreamingFolder folder;
    /// Alphabet ids [first, last) of this shard that were first interned
    /// while folding `doc_index` — the replay log for rebuilding the
    /// inline interning order at the barrier.
    struct NewNames {
      int64_t doc_index;
      int first;
      int last;
    };
    std::vector<NewNames> new_names;
    std::vector<DocumentError> errors;
    /// Documents this shard ingested (the shard_docs_max gauge — a
    /// load-balance signal, scheduling-dependent by nature).
    int64_t docs_ingested = 0;
  };

  /// One staged document: its bytes (a view into the batch arena) or,
  /// when `is_path` is set, the file path to read worker-side.
  struct WorkItem {
    std::string_view text;
    int64_t doc_index = 0;
    bool is_path = false;
  };

  /// The unit of hand-off: up to kBatchDocs documents plus the arena
  /// owning their bytes, consumed and freed whole by one worker.
  struct Batch {
    std::vector<WorkItem> items;
    Arena arena;
  };

  void Add(std::string_view text, bool is_path);
  /// Appends the staging batch to the queue and wakes a worker.
  void DispatchPending();
  /// Dispatches the partial batch, closes the queue and joins the pool.
  void JoinWorkers();
  void Worker(Shard* shard);
  /// Replays the shard alphabets into `merged_`, then merges the shards
  /// into it through the pairwise merge tree.
  void MergeShards();

  int jobs_;
  DtdInferrer merged_;
  /// The inline fold into `merged_` (used at jobs == 1 only).
  StreamingFolder folder_;
  int64_t next_doc_index_ = 0;
  bool finished_ = false;
  std::vector<DocumentError> errors_;

  /// Caller-owned staging batch; dispatched when full.
  std::unique_ptr<Batch> pending_;
  /// Dispatched batches, oldest (lowest document indices) first. The
  /// mutex guards the queue and `closed_`; the condvar parks idle
  /// workers.
  std::deque<std::unique_ptr<Batch>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool closed_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
};

}  // namespace condtd

#endif  // CONDTD_INFER_ENGINE_H_
