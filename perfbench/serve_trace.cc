// The traced in-process serve run: one serve::Corpus driven on the
// scenario's schedule, with spans around Corpus::Ingest, Corpus::Query
// and Journal::Append. A side IngestSession, fed the same documents,
// decomposes a query into snapshot, LoadState, learn and emit on the
// same schedule (alternate ticks with the real Corpus::Query).

#include <mutex>
#include <thread>

#include "dtd/dtd_writer.h"
#include "harness.h"
#include "infer/inferrer.h"
#include "infer/session.h"
#include "serve/corpus.h"
#include "serve/journal.h"

namespace perfbench {

namespace {

using condtd::DtdInferrer;
using condtd::Result;
using condtd::Status;
using condtd::serve::Corpus;
using condtd::serve::Journal;

/// One decomposed query on the side session.
struct QuerySteps {
  double snapshot_s = 0;
  double load_s = 0;
  double learn_s = 0;
  double emit_s = 0;
  double wall_s = 0;
  size_t state_bytes = 0;
};

bool DecomposedQuery(condtd::IngestSession* session, QuerySteps* steps,
                     std::string* schema, std::string* error) {
  double start = NowS();
  std::string state;
  int64_t epoch = 0;
  steps->snapshot_s = TimeS([&] { session->Snapshot(&state, &epoch); });
  DtdInferrer reader(session->options());
  Status loaded = Status::OK();
  steps->load_s = TimeS([&] { loaded = reader.LoadState(state); });
  Result<condtd::Dtd> dtd = Status::Internal("not run");
  steps->learn_s = TimeS([&] { dtd = reader.InferDtd(); });
  if (!loaded.ok() || !dtd.ok()) {
    *error = loaded.ok() ? dtd.status().ToString() : loaded.ToString();
    return false;
  }
  steps->emit_s =
      TimeS([&] { *schema = condtd::WriteDtd(*dtd, *reader.alphabet()); });
  steps->wall_s = NowS() - start;
  steps->state_bytes = state.size();
  return true;
}

}  // namespace

bool ServeTrace(const ServeScenario& scenario, const std::string& data_dir,
                JsonLine* out, std::string* error) {
  Corpus::Options options;
  options.data_dir = data_dir;
  options.fsync_journal = false;
  {
    Result<std::unique_ptr<Corpus>> corpus = Corpus::Open(kCorpusId, options);
    if (!corpus.ok()) {
      *error = corpus.status().ToString();
      return false;
    }
    for (int64_t k = 0; k < scenario.prefill; ++k) {
      Status status = (*corpus)->Ingest(scenario.Document(k));
      if (!status.ok()) {
        *error = status.ToString();
        return false;
      }
    }
  }

  // Recovery of the prefilled directory (journal replay), three times.
  std::vector<double> recover_s;
  std::unique_ptr<Corpus> corpus;
  for (int i = 0; i < 3; ++i) {
    corpus.reset();
    Result<std::unique_ptr<Corpus>> opened = Status::Internal("not run");
    recover_s.push_back(
        TimeS([&] { opened = Corpus::Open(kCorpusId, options); }));
    if (!opened.ok()) {
      *error = opened.status().ToString();
      return false;
    }
    corpus = std::move(*opened);
  }

  condtd::IngestSession side(options.inference);
  for (int64_t k = 0; k < scenario.prefill; ++k) {
    if (!side.Ingest(scenario.Document(k)).ok()) {
      *error = "side session rejected a prefill document";
      return false;
    }
  }
  Result<Journal> journal = Journal::Open(data_dir + "/side.log", false);
  if (!journal.ok()) {
    *error = journal.status().ToString();
    return false;
  }
  std::mutex journal_mu;  // guards *journal, as Corpus's ingest lock does

  std::mutex mu;  // guards the sample vectors and `failure`
  std::vector<double> ingest_s, append_s, query_s, late_s;
  std::vector<QuerySteps> steps;
  std::vector<double> corpus_bytes;
  std::string failure;
  auto fail = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(mu);
    if (failure.empty()) failure = message;
  };

  double t0 = NowS() + 0.05;
  double window_end = t0 + scenario.seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < kIngestConnections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> ingest, append, late;
      for (int64_t k = c;; k += kIngestConnections) {
        double due = t0 + static_cast<double>(k) / scenario.ingest_rate;
        if (due >= window_end) break;
        SleepUntil(due);
        late.push_back(NowS() - due);
        const std::string& doc = scenario.Document(scenario.prefill + k);
        Status status = Status::OK();
        ingest.push_back(TimeS([&] { status = corpus->Ingest(doc); }));
        if (!status.ok() || !side.Ingest(doc).ok()) {
          fail("ingest failed: " + status.ToString());
          break;
        }
        std::lock_guard<std::mutex> lock(journal_mu);
        Status appended = Status::OK();
        append.push_back(TimeS([&] { appended = journal->Append(k, doc); }));
        if (!appended.ok()) {
          fail(appended.ToString());
          break;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      ingest_s.insert(ingest_s.end(), ingest.begin(), ingest.end());
      append_s.insert(append_s.end(), append.begin(), append.end());
      late_s.insert(late_s.end(), late.begin(), late.end());
    });
  }
  // Query ticks alternate between the real Corpus::Query and the side
  // session's decomposition.
  threads.emplace_back([&] {
    for (int64_t k = 0;; ++k) {
      double due = t0 + static_cast<double>(k) / scenario.query_rate;
      if (due >= window_end) break;
      SleepUntil(due);
      if (k % 2 == 0) {
        Result<std::string> schema = Status::Internal("not run");
        double spent =
            TimeS([&] { schema = corpus->Query(/*algorithm=*/"", false); });
        std::lock_guard<std::mutex> lock(mu);
        query_s.push_back(spent);
        corpus_bytes.push_back(static_cast<double>(corpus->ApproxBytes()));
        if (!schema.ok()) failure = schema.status().ToString();
      } else {
        QuerySteps step;
        std::string schema;
        std::string message;
        bool ok = DecomposedQuery(&side, &step, &schema, &message);
        std::lock_guard<std::mutex> lock(mu);
        steps.push_back(step);
        if (!ok) failure = message;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  if (!failure.empty()) {
    *error = failure;
    return false;
  }

  // Both paths saw the same multiset, so they must answer alike.
  Result<std::string> final_schema = corpus->Query("", false);
  QuerySteps last;
  std::string side_schema;
  if (!final_schema.ok() ||
      !DecomposedQuery(&side, &last, &side_schema, error)) {
    if (error->empty()) *error = final_schema.status().ToString();
    return false;
  }
  if (*final_schema != side_schema) {
    *error = "Corpus::Query and the side session's DTD differ";
    return false;
  }
  condtd::serve::CorpusStats stats = corpus->GetStats();

  auto step_ms = [&](double QuerySteps::*field) {
    std::vector<double> values;
    for (const QuerySteps& s : steps) values.push_back(1000 * (s.*field));
    return Median(values);
  };
  std::vector<double> unattributed_ms, state_bytes;
  for (const QuerySteps& s : steps) {
    unattributed_ms.push_back(
        1000 * (s.wall_s - s.snapshot_s - s.load_s - s.learn_s - s.emit_s));
    state_bytes.push_back(static_cast<double>(s.state_bytes));
  }
  double query_p50_ms = 1000 * Median(query_s);
  out->Num("serve.corpus_ingest_p50_ms", 1000 * Quantile(&ingest_s, 0.5));
  out->Num("serve.corpus_ingest_p99_ms", 1000 * Quantile(&ingest_s, 0.99));
  out->Num("serve.journal_append_us", 1e6 * Median(append_s));
  out->Num("serve.corpus_query_p50_ms", query_p50_ms);
  out->Num("serve.query_cache_hit_ratio",
           stats.queries == 0 ? 0.0
                              : static_cast<double>(stats.query_cache_hits) /
                                    static_cast<double>(stats.queries));
  out->Num("infer.snapshot_ms", step_ms(&QuerySteps::snapshot_s));
  out->Num("infer.load_state_ms", step_ms(&QuerySteps::load_s));
  out->Num("learn.query_learn_ms", step_ms(&QuerySteps::learn_s));
  out->Num("dtd.query_emit_ms", step_ms(&QuerySteps::emit_s));
  out->Num("serve.state_bytes", Median(state_bytes));
  out->Num("serve.recover_s", Median(recover_s));
  out->Num("serve.corpus_bytes", Median(corpus_bytes));
  out->Num("serve.trace_late_p99_ms", 1000 * Quantile(&late_s, 0.99));
  out->Num("serve.trace_queries", static_cast<double>(query_s.size()));
  out->Num("serve.trace_decomposed", static_cast<double>(steps.size()));
  // The query path's reconciliation, in the trace.* shape run.py reports
  // for serve_mixed.
  double wall_ms = step_ms(&QuerySteps::wall_s);
  out->Num("serve.trace_wall_s", wall_ms / 1000);
  out->Num("serve.trace_unattributed_s", Median(unattributed_ms) / 1000);
  out->Num("serve.trace_untraced_wall_s", query_p50_ms / 1000);
  out->Num("serve.trace_overhead_s", (wall_ms - query_p50_ms) / 1000);
  return true;
}

}  // namespace perfbench
