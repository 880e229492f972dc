#pragma once

/// \file common.hpp
/// Shared plumbing of the serving benchmark's load generator: wall-clock
/// timing and spans, sample sets with percentiles, the outcome digest, the
/// metric sink, and the run parameters every workload reads.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Keeps a computed value alive so the optimizer cannot drop the work
/// that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Times one call, in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

/// A set of timing samples. Percentiles use the nearest-rank rule.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (const double v : values_) s += v;
    return s;
  }
  [[nodiscard]] double mean() const {
    return values_.empty() ? 0.0 : sum() / static_cast<double>(count());
  }
  /// Nearest-rank q-quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const {
    return quantile_of(values_.begin(), values_.end(), q);
  }
  /// The mean, over `chunks` equal runs of consecutive samples, of each
  /// run's q-quantile. The vCPUs' speed switches between levels every few
  /// seconds; a quantile of the whole run jumps from one level to the other
  /// as the share of slow time crosses its rank, while this mean moves in
  /// proportion to that share.
  [[nodiscard]] double chunked_quantile(double q, std::size_t chunks) const {
    Samples per_chunk;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto first = values_.begin() + static_cast<std::ptrdiff_t>(
                                              c * values_.size() / chunks);
      const auto last = values_.begin() + static_cast<std::ptrdiff_t>(
                                             (c + 1) * values_.size() / chunks);
      per_chunk.add(quantile_of(first, last, q));
    }
    return per_chunk.mean();
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Samples strictly above the q-quantile (the "beyond" count a tail
  /// percentile rests on).
  [[nodiscard]] std::size_t beyond(double q) const {
    const double cut = quantile(q);
    return static_cast<std::size_t>(std::count_if(
        values_.begin(), values_.end(), [&](double v) { return v > cut; }));
  }

 private:
  static double quantile_of(std::vector<double>::const_iterator first,
                            std::vector<double>::const_iterator last,
                            double q) {
    if (first == last) return 0.0;
    std::vector<double> sorted(first, last);
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) == rank && idx > 0) --idx;
    return sorted[std::min(idx, sorted.size() - 1)];
  }

  std::vector<double> values_;
};

/// Chunks the end-to-end latency percentiles are taken over: as many as
/// hold at least ten windows (or batches) each, at most kLatencyChunks.
inline constexpr std::size_t kLatencyChunks = 9;
[[nodiscard]] inline std::size_t latency_chunks(std::size_t windows) {
  return std::clamp<std::size_t>(windows / 10, 1, kLatencyChunks);
}

/// Order-sensitive 64-bit digest over per-request outcomes.
class Digest {
 public:
  void mix(std::uint64_t v) {
    state_ = meteo::splitmix64(state_ ^ (v + 0x9e3779b97f4a7c15ULL));
  }
  void mix_double(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0x70657266'62656e63ULL;
};

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Named metrics with units, in insertion-independent (sorted) order.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// A benchmark-side span around one public call: a served window, a
/// request inside it, or a batch. `parent` is 0 for a root span, else the
/// 1-based index of the root span that caused it.
struct Span {
  std::uint32_t parent = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Corpus scale (defaults: the harness corpus of the repository's benches).
struct CorpusSpec {
  std::size_t items = 60'000;
  std::size_t keywords = 89'000;
  std::size_t nodes = 1'000;
};

/// Read workers of every measured pass: one process with 2 read workers
/// keeps at most 3 busy threads on a 4-vCPU host.
inline constexpr std::size_t kWorkers = 2;
/// Full set-ups per run; setup_s reports their median. The second and
/// third carry the correctness replays.
inline constexpr std::size_t kSetups = 3;

struct RunParams {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  CorpusSpec corpus;
};

/// What a workload hands back to main(): request accounting, metrics and
/// the correctness verdict.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::string digest;
  std::uint64_t corpus_fingerprint = 0;
  MetricSink end_to_end;
  MetricSink per_layer;
  /// Free-form context lines (sample counts, window counts, model terms).
  std::map<std::string, double> notes;
  /// Spans of the traced pass (traced runs only).
  std::vector<Span> spans;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Peak resident set size of this process, MiB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
