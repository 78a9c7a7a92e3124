// The perfbench harness's parts: the batch probes (traced pass, engine run),
// the open-loop wire load generator and the traced in-process serve run.
#ifndef CONDTD_PERFBENCH_HARNESS_H_
#define CONDTD_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Worker threads of the program under test (`--jobs`, `--workers`).
constexpr int kJobs = 4;

/// The corpus id every serve run ingests into.
constexpr const char* kCorpusId = "bench";

/// INGEST connections of a serve scenario; QUERY uses one more.
constexpr int kIngestConnections = 3;

/// Documents ingested before a serve window: enough for the corpus
/// state to reach its saturated size.
constexpr int64_t kServePrefill = 8000;

/// The DTD of documents[index % size] over `indices`, folded in order
/// by an in-process IngestEngine at jobs=1.
bool ReferenceDtdOfDocuments(const std::vector<std::string>& documents,
                             const std::vector<int64_t>& indices,
                             std::string* dtd, std::string* error);

/// The traced jobs=1 pipeline over `files` (InputBuffer::Open,
/// StreamingFolder::AddXml and Flush, InferDtd(kJobs), WriteDtd), plus a
/// bare SaxLexer pass and serial per-element learning that split it.
/// Adds the io/xml/infer/learn/dtd metrics and trace.wall_s /
/// trace.unattributed_s to `out`; `*dtd` is the traced DTD.
bool TracedPass(const std::vector<std::string>& files, JsonLine* out,
                std::string* dtd, std::string* error);

/// The untraced pipeline `condtd infer --jobs=JOBS` runs, in-process:
/// IngestEngine AddFile + Finish, then InferDtd(kJobs) and WriteDtd.
/// Adds submit_s, finish_s and wall_s to `out`. At jobs=1 its DTD is
/// the reference every other DTD must equal.
bool EngineRun(const std::vector<std::string>& files, int jobs,
               JsonLine* out, std::string* dtd, std::string* error);

/// An open-loop serve traffic mix over one corpus.
struct ServeScenario {
  std::vector<std::string> documents;  ///< request k sends documents[k % size]
  int64_t prefill = 0;     ///< documents ingested before the window
  double ingest_rate = 0;  ///< INGEST requests per second, all connections
  double query_rate = 0;   ///< QUERY requests per second
  double seconds = 0;      ///< measured window

  const std::string& Document(int64_t k) const {
    return documents[static_cast<size_t>(k) % documents.size()];
  }
};

/// The serve_mixed traffic over ServeDocuments(seed): kServePrefill
/// documents before the window, then 2000 INGEST/s over
/// kIngestConnections connections and 25 QUERY/s on one more. Every
/// serve run uses it, the traced runs of the batch workloads included.
ServeScenario ServeMixedScenario(uint64_t seed, double seconds);

/// Closed-loop prefill of documents[0, prefill) over the wire.
bool ServePrefill(const std::string& socket, const ServeScenario& scenario,
                  std::string* error);

/// Drives the scenario's window against a running daemon and checks the
/// final QUERY against the batch DTD of every acknowledged document.
/// Adds latencies, counts and `correct` to `out`.
bool ServeLoad(const std::string& socket, const ServeScenario& scenario,
               JsonLine* out, std::string* error);

/// Sends SHUTDOWN.
bool ServeShutdown(const std::string& socket, std::string* error);

/// Traced in-process run of the scenario on one serve::Corpus under
/// `data_dir`, with a side IngestSession decomposing queries. Adds the
/// serve/snapshot/learn/emit metrics to `out`.
bool ServeTrace(const ServeScenario& scenario, const std::string& data_dir,
                JsonLine* out, std::string* error);

}  // namespace perfbench

#endif  // CONDTD_PERFBENCH_HARNESS_H_
