// Shared helpers of the perfbench harness: clocks, quantiles, the
// seeded generator and a flat JSON object writer.
#ifndef CONDTD_PERFBENCH_COMMON_H_
#define CONDTD_PERFBENCH_COMMON_H_

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds spent in `fn`.
template <typename Fn>
double TimeS(Fn&& fn) {
  double start = NowS();
  fn();
  return NowS() - start;
}

/// Sleeps until `t` (a NowS() value) with the calling thread's timer
/// slack at its minimum: the default 50 us slack would land in every
/// latency measured from a due time.
inline void SleepUntil(double t) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  double wait = t - NowS();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t index = static_cast<size_t>(
      q * static_cast<double>(values->size() - 1) + 0.5);
  return (*values)[std::min(index, values->size() - 1)];
}

inline double Median(std::vector<double> values) {
  return Quantile(&values, 0.5);
}

/// splitmix64: every generated input derives from the workload seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// One flat JSON object of named numbers and strings, printed on one
/// line: the harness's only output format, parsed by run.py.
class JsonLine {
 public:
  void Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    fields_.emplace_back(key, buffer);
  }
  void Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    fields_.emplace_back(key, quoted + "\"");
  }
  void Print() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench

#endif  // CONDTD_PERFBENCH_COMMON_H_
