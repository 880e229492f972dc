#pragma once

/// \file host_speed.hpp
/// The host's current speed, sampled with a fixed piece of benchmark-owned
/// work. The benchmark shares a few vCPUs of a shared host whose speed
/// drifts by up to 2x over minutes (neighbours on sibling hyperthreads,
/// other tenants' cache and memory traffic), so raw wall times of the same
/// code on the same inputs differ between runs by more than any useful
/// bound. End-to-end timings are therefore reported at the reference host
/// speed: each measured interval is scaled by (kReferenceSeconds / the
/// kernel's time sampled next to it) ^ kSensitivity. The kernel is the
/// benchmark's own code and the factor depends on the host alone, so a
/// change to the library moves the scaled figures in the same proportion
/// as the raw ones; the reports keep the raw figures in their notes.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {

class HostSpeed {
 public:
  /// Time of one kernel sample on the reference host (a 4-vCPU VM at its
  /// usual speed). Scaled timings read as if measured there.
  static constexpr double kReferenceSeconds = 0.23e-3;
  /// How much more the library's time moves with the host's state than the
  /// kernel's does. Over three sets of ten runs per workload on the
  /// reference host, log(raw throughput) against log(kernel speed) had a
  /// slope of 1.9-2.6 for query_mix and paper_batch (correlation 0.8-1.0)
  /// and 1.0-2.2 for serve_churn (0.35-0.84): the kernel reads the host's
  /// state, and the library feels it about twice as strongly.
  static constexpr double kSensitivity = 2.0;
  /// Spacing of sample_if_due's samples: a few percent of a run's wall
  /// time.
  static constexpr double kInterval = 0.02;

  /// Starts one helper thread per vCPU beyond the caller's (at most 3).
  HostSpeed();
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// Runs the kernel once on every vCPU at the same time and records the
  /// mean of their times and when the sample started. Call only while the
  /// library is idle (between windows or batches), never inside a measured
  /// interval.
  void sample();

  /// Samples when the last sample is older than kInterval, or there is
  /// none yet.
  void sample_if_due();

  /// Runs `fn` between samples and returns its wall time scaled to the
  /// reference host.
  template <typename Fn>
  double time_scaled(Fn&& fn) {
    for (int i = 0; i < 3; ++i) sample();
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    for (int i = 0; i < 3; ++i) sample();
    return std::chrono::duration<double>(end - start).count() *
           factor_at(start + (end - start) / 2);
  }

  /// The factor that scales a wall time measured at `t` to the reference
  /// host: (kReferenceSeconds / median of the samples nearest to `t`) ^
  /// kSensitivity.
  [[nodiscard]] double factor_at(Clock::time_point t) const;

  /// Median factor over all samples (for notes).
  [[nodiscard]] double median_factor() const;

  [[nodiscard]] std::size_t samples() const { return at_.size(); }

 private:
  /// One lane's part of a sample: its kernel time, in seconds.
  double kernel(std::size_t lane);
  void helper_loop(std::size_t lane);

  std::vector<std::vector<std::uint32_t>> table_;  // per lane, 256 KiB

  std::mutex mutex_;  // guards lane_seconds_, round_, finished_, stop_
  std::vector<double> lane_seconds_;  // per lane: the last kernel time
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t round_ = 0;
  std::size_t finished_ = 0;
  bool stop_ = false;
  std::vector<std::thread> helpers_;  // declared after what they use

  std::vector<Clock::time_point> at_;
  std::vector<double> seconds_;
};

}  // namespace perfbench
