#include "host_speed.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace perfbench {

namespace {

/// The kernel does what the library's hot paths spend their time on, in
/// two parts: four independent 64-bit hash chains (integer work with
/// instruction-level parallelism, from which a busy sibling hyperthread
/// takes execution ports) and four independent walks over a table that fits
/// in L2, with a data-dependent branch (cache hits, which a sibling's and
/// other tenants' cache traffic slow down). Across runs on the reference
/// host its time tracked query_mix's throughput with a correlation of
/// 0.99, and serve_churn's with 0.74; a hash chain alone or loads that
/// always miss the caches tracked them far less closely. The table is read
/// once, untimed, before each timed walk, so what the library left in the
/// caches does not change the time.
constexpr std::size_t kHashSteps = 10'000;
constexpr std::size_t kTableEntries = std::size_t{1} << 16;  // 256 KiB
constexpr std::size_t kWalkSteps = 20'000;
constexpr std::size_t kMaxLanes = 4;
/// Samples on each side of the one nearest a timestamp that factor_at's
/// median takes in.
constexpr std::size_t kNeighbours = 2;

std::size_t lanes() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                 kMaxLanes);
}

}  // namespace

HostSpeed::HostSpeed() : table_(lanes()), lane_seconds_(lanes(), 0.0) {
  for (std::size_t lane = 0; lane < table_.size(); ++lane) {
    table_[lane].resize(kTableEntries);
    for (std::size_t i = 0; i < kTableEntries; ++i) {
      table_[lane][i] = static_cast<std::uint32_t>(meteo::splitmix64(lane ^ i));
    }
  }
  for (std::size_t lane = 1; lane < table_.size(); ++lane) {
    helpers_.emplace_back([this, lane] { helper_loop(lane); });
  }
  for (int warm = 0; warm < 3; ++warm) sample();
  at_.clear();
  seconds_.clear();
}

HostSpeed::~HostSpeed() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

double HostSpeed::kernel(std::size_t lane) {
  const std::vector<std::uint32_t>& table = table_[lane];
  std::uint32_t warm = 0;
  for (std::size_t i = 0; i < kTableEntries; i += 16) warm += table[i];
  keep(warm);

  const auto start = Clock::now();
  std::uint64_t h0 = lane;
  std::uint64_t h1 = h0 + 1;
  std::uint64_t h2 = h0 + 2;
  std::uint64_t h3 = h0 + 3;
  for (std::size_t i = 0; i < kHashSteps; ++i) {
    h0 = meteo::splitmix64(h0);
    h1 = meteo::splitmix64(h1);
    h2 = meteo::splitmix64(h2);
    h3 = meteo::splitmix64(h3);
  }
  keep(h0 ^ h1 ^ h2 ^ h3);
  constexpr std::uint32_t kMask = kTableEntries - 1;
  auto a0 = static_cast<std::uint32_t>(h0);
  auto a1 = static_cast<std::uint32_t>(h1);
  auto a2 = static_cast<std::uint32_t>(h2);
  auto a3 = static_cast<std::uint32_t>(h3);
  for (std::size_t i = 0; i < kWalkSteps; ++i) {
    a0 = a0 * 2654435761u + table[a0 & kMask];
    a1 = a1 * 2246822519u + table[a1 & kMask];
    a2 = a2 * 3266489917u + table[a2 & kMask];
    a3 = a3 * 668265263u + table[a3 & kMask];
    if ((a0 & 1u) != 0) {
      ++a1;
    } else {
      a2 ^= a3;
    }
  }
  keep(a0 ^ a1 ^ a2 ^ a3);
  return seconds_since(start);
}

void HostSpeed::helper_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
    }
    const double s = kernel(lane);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      lane_seconds_[lane] = s;
      ++finished_;
    }
    done_.notify_one();
  }
}

void HostSpeed::sample() {
  const auto start = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finished_ = 0;
    ++round_;
  }
  wake_.notify_all();
  const double own = kernel(0);
  double sum = own;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return finished_ == helpers_.size(); });
    for (std::size_t lane = 1; lane < lane_seconds_.size(); ++lane) {
      sum += lane_seconds_[lane];
    }
  }
  const double s = sum / static_cast<double>(lane_seconds_.size());
  at_.push_back(start);
  seconds_.push_back(s);
}

void HostSpeed::sample_if_due() {
  if (at_.empty() ||
      std::chrono::duration<double>(Clock::now() - at_.back()).count() >=
          kInterval) {
    sample();
  }
}

double HostSpeed::factor_at(Clock::time_point t) const {
  if (seconds_.empty()) return 1.0;
  const auto nearest = static_cast<std::size_t>(
      std::lower_bound(at_.begin(), at_.end(), t) - at_.begin());
  const std::size_t centre = std::min(nearest, seconds_.size() - 1);
  const std::size_t first = centre >= kNeighbours ? centre - kNeighbours : 0;
  const std::size_t last = std::min(seconds_.size(), centre + kNeighbours + 1);
  Samples around;
  for (std::size_t i = first; i < last; ++i) around.add(seconds_[i]);
  return std::pow(kReferenceSeconds / around.median(), kSensitivity);
}

double HostSpeed::median_factor() const {
  Samples all;
  for (const double s : seconds_) all.add(s);
  return all.empty() ? 1.0
                     : std::pow(kReferenceSeconds / all.median(), kSensitivity);
}

}  // namespace perfbench
