#ifndef CONDTD_SERVE_PROMETHEUS_H_
#define CONDTD_SERVE_PROMETHEUS_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/corpus.h"

namespace condtd {
namespace serve {

/// Renders the daemon's state in Prometheus text exposition format
/// 0.0.4 (text/plain; version=0.0.4): per-corpus counters, gauges and
/// latency histograms labelled {corpus="<id>"}, followed by the
/// process-wide obs registry (condtd_process_* counters and gauges, and
/// the condtd_process_stage_seconds histogram labelled {stage="<name>"}).
/// Families are grouped under one # HELP / # TYPE header each,
/// counters carry the _total suffix, and histogram buckets are
/// cumulative with le= in seconds — the invariants the CI metrics lint
/// checks.
std::string RenderPrometheusText(
    const std::vector<std::pair<std::string, CorpusStats>>& corpora,
    const obs::StatsSnapshot& process);

}  // namespace serve
}  // namespace condtd

#endif  // CONDTD_SERVE_PROMETHEUS_H_
