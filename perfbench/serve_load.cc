// The open-loop wire load generator for `condtd serve`. Every request
// has a due time fixed by the schedule; latency runs from that due time,
// so a stall also charges the requests queued behind it.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "harness.h"
#include "inputs.h"
#include "serve/client.h"

namespace perfbench {

namespace {

using condtd::Result;
using condtd::serve::Client;

/// Requests due in the window may still go out this long after it;
/// later they count as unsent, and failed.
constexpr double kDrainSeconds = 2;

/// Highest quantile that leaves at least ten samples beyond it, capped
/// at 0.99 (so p99 from 1000 samples up).
double TailQuantile(size_t samples) {
  if (samples < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(samples));
}

/// The integer after `key` in `text`, or -1.
int64_t FieldAfter(const std::string& text, const std::string& key) {
  size_t pos = text.find(key);
  if (pos == std::string::npos) return -1;
  return std::atoll(text.c_str() + pos + key.size());
}

int64_t DocumentsIngested(const std::string& socket) {
  Result<Client> client = Client::ConnectUnix(socket);
  if (!client.ok()) return -1;
  Result<std::string> stats = client->Stats();
  return stats.ok() ? FieldAfter(*stats, "\"documents_ingested\": ") : -1;
}

/// Samples of one request class, merged from its threads.
struct Samples {
  std::mutex mu;
  std::vector<double> latency_s;
  std::vector<double> late_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t unsent = 0;

  void Merge(const std::vector<double>& latency,
             const std::vector<double>& late, int64_t attempts,
             int64_t failures, int64_t unsent_requests) {
    std::lock_guard<std::mutex> lock(mu);
    latency_s.insert(latency_s.end(), latency.begin(), latency.end());
    late_s.insert(late_s.end(), late.begin(), late.end());
    attempted += attempts;
    failed += failures;
    unsent += unsent_requests;
  }
};

/// Sends requests first, first + stride, ... of a `rate`/s schedule
/// starting at `t0` until the window closes; `send` performs request k
/// and reports success.
template <typename Send>
void RunSchedule(const std::string& socket, double t0, double rate,
                 int64_t first, int64_t stride, const ServeScenario& scenario,
                 Samples* samples, Send send) {
  std::vector<double> latency;
  std::vector<double> late;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t unsent = 0;
  Result<Client> client = Client::ConnectUnix(socket);
  double window_end = t0 + scenario.seconds;
  for (int64_t k = first;; k += stride) {
    double due = t0 + static_cast<double>(k) / rate;
    if (due >= window_end) break;
    ++attempted;
    SleepUntil(due);
    double sent = NowS();
    if (!client.ok() || sent > window_end + kDrainSeconds) {
      ++unsent;
      ++failed;
      continue;
    }
    late.push_back(sent - due);
    bool ok = send(&*client, k);
    latency.push_back(NowS() - due);
    if (!ok) ++failed;
  }
  samples->Merge(latency, late, attempted, failed, unsent);
}

}  // namespace

ServeScenario ServeMixedScenario(uint64_t seed, double seconds) {
  ServeScenario scenario;
  scenario.documents = ServeDocuments(seed);
  scenario.seconds = seconds;
  // A query under ingest costs ~11 ms of daemon CPU. At 25/s the query
  // connection is ~30% busy, so a host phase that halves the speed still
  // leaves it below saturation; at 50/s such a phase turned the open
  // loop into a growing backlog (p50 from 10 ms to 1 s).
  scenario.prefill = kServePrefill;
  scenario.ingest_rate = 2000;
  scenario.query_rate = 25;
  return scenario;
}

bool ServePrefill(const std::string& socket, const ServeScenario& scenario,
                  std::string* error) {
  // One connection, in index order: DTD declarations follow the order in
  // which element names are first folded, so the prefill (which meets
  // every name) must fix that order for the final check to be exact.
  // The window's concurrent connections then only add counts.
  Result<Client> client = Client::ConnectUnix(socket);
  if (!client.ok()) {
    *error = client.status().ToString();
    return false;
  }
  for (int64_t k = 0; k < scenario.prefill; ++k) {
    Result<std::string> reply =
        client->IngestInline(kCorpusId, scenario.Document(k));
    if (!reply.ok()) {
      *error = "prefill document " + std::to_string(k) + ": " +
               reply.status().ToString();
      return false;
    }
  }
  return true;
}

bool ServeLoad(const std::string& socket, const ServeScenario& scenario,
               JsonLine* out, std::string* error) {
  int64_t baseline = DocumentsIngested(socket);
  if (baseline < 0) {
    *error = "STATS before the window failed";
    return false;
  }
  const int64_t window_requests = static_cast<int64_t>(
      scenario.seconds * scenario.ingest_rate + 1);
  std::vector<uint8_t> acked(static_cast<size_t>(window_requests), 0);
  std::atomic<int64_t> max_documents{0};
  Samples ingest;
  Samples query;

  double t0 = NowS() + 0.05;
  std::vector<std::thread> threads;
  for (int c = 0; c < kIngestConnections; ++c) {
    threads.emplace_back([&, c] {
      RunSchedule(socket, t0, scenario.ingest_rate, c, kIngestConnections,
                  scenario, &ingest, [&](Client* client, int64_t k) {
                    Result<std::string> reply = client->IngestInline(
                        kCorpusId, scenario.Document(scenario.prefill + k));
                    if (!reply.ok()) return false;
                    acked[static_cast<size_t>(k)] = 1;
                    int64_t documents = FieldAfter(*reply, "documents=");
                    int64_t seen = max_documents.load();
                    while (documents > seen &&
                           !max_documents.compare_exchange_weak(seen,
                                                                documents)) {
                    }
                    return true;
                  });
    });
  }
  threads.emplace_back([&] {
    RunSchedule(socket, t0, scenario.query_rate, 0, 1, scenario, &query,
                [](Client* client, int64_t) {
                  Result<std::string> reply = client->Query(kCorpusId);
                  return reply.ok() && !reply->empty();
                });
  });
  for (std::thread& t : threads) t.join();

  // The determinism contract: the final schema is the batch DTD of the
  // prefill plus every acknowledged document, whatever the fold order.
  std::vector<int64_t> indices;
  for (int64_t k = 0; k < scenario.prefill; ++k) indices.push_back(k);
  for (int64_t k = 0; k < window_requests; ++k) {
    if (acked[static_cast<size_t>(k)]) indices.push_back(scenario.prefill + k);
  }
  int64_t acked_count =
      static_cast<int64_t>(indices.size()) - scenario.prefill;
  std::string expected;
  if (!ReferenceDtdOfDocuments(scenario.documents, indices, &expected,
                               error)) {
    return false;
  }
  Result<Client> client = Client::ConnectUnix(socket);
  Result<std::string> final_schema =
      client.ok() ? client->Query(kCorpusId) : client.status();
  int64_t documents_after = DocumentsIngested(socket);
  std::string check;
  if (!final_schema.ok()) {
    check = "final QUERY failed: " + final_schema.status().ToString();
  } else if (*final_schema != expected) {
    check = "final QUERY differs from the batch DTD of the acked documents";
  } else if (documents_after != baseline + acked_count ||
             (acked_count > 0 && max_documents.load() != documents_after)) {
    check = "documents= " + std::to_string(documents_after) +
            " (max ack " + std::to_string(max_documents.load()) +
            "), expected " + std::to_string(baseline + acked_count);
  }

  auto ms = [](std::vector<double>* values, double q) {
    return 1000 * Quantile(values, q);
  };
  out->Num("ingest_p50_ms", ms(&ingest.latency_s, 0.5));
  out->Num("ingest_p99_ms",
           ms(&ingest.latency_s, TailQuantile(ingest.latency_s.size())));
  out->Num("query_p50_ms", ms(&query.latency_s, 0.5));
  out->Num("query_p99_ms",
           ms(&query.latency_s, TailQuantile(query.latency_s.size())));
  std::vector<double> late = ingest.late_s;
  late.insert(late.end(), query.late_s.begin(), query.late_s.end());
  out->Num("gen.late_p50_ms", ms(&late, 0.5));
  out->Num("gen.late_p99_ms", ms(&late, 0.99));
  out->Num("ingest_attempted", static_cast<double>(ingest.attempted));
  out->Num("query_attempted", static_cast<double>(query.attempted));
  out->Num("attempted", static_cast<double>(ingest.attempted + query.attempted));
  out->Num("failed", static_cast<double>(ingest.failed + query.failed));
  out->Num("unsent", static_cast<double>(ingest.unsent + query.unsent));
  out->Num("acked", static_cast<double>(acked_count));
  out->Num("correct", check.empty() ? 1 : 0);
  out->Str("check", check);
  return true;
}

bool ServeShutdown(const std::string& socket, std::string* error) {
  Result<Client> client = Client::ConnectUnix(socket);
  if (client.ok()) {
    Result<std::string> reply = client->Shutdown();
    if (reply.ok()) return true;
    *error = reply.status().ToString();
  } else {
    *error = client.status().ToString();
  }
  return false;
}

}  // namespace perfbench
