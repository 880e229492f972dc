#pragma once

/// \file batch.hpp
/// Homogeneous op batches over a Meteorograph system.
///
/// A BatchEngine is a thin adapter: each call runs its op vector as one
/// window of the execution engine's executor (meteorograph/epoch.hpp,
/// DESIGN.md §11) on the live stores, with op `i` keyed (seed, i), so
/// results, system state, and metrics are bit-identical at any worker
/// count. The caller keeps the borrowed workload alive for the call.
///
///   BatchEngine engine(sys, {.workers = 8, .seed = 42});
///   std::vector<LocateOp> ops = ...;
///   std::vector<LocateResult> results = engine.locate(ops);

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "meteorograph/epoch.hpp"

namespace meteo::core {

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). The engine
  /// may use fewer (1) when the configuration or hook is not thread-safe.
  std::size_t workers = 0;
  /// Root of every per-operation RNG/fault substream. Two engines with the
  /// same seed over identical systems produce identical batches.
  std::uint64_t seed = 0x6d657465'6f726f67ULL;
};

class BatchEngine {
 public:
  /// Binds to `system` for the engine's lifetime (non-owning). The pool is
  /// created once here, not per batch.
  explicit BatchEngine(Meteorograph& system, BatchOptions options = {})
      : executor_(system, options.workers, options.seed) {}

  // Read-only batches: parallel, results in op order.
  std::vector<RetrieveResult> retrieve(std::span<const RetrieveOp> ops) {
    return run<RetrieveResult>(ops);
  }
  std::vector<LocateResult> locate(std::span<const LocateOp> ops) {
    return run<LocateResult>(ops);
  }
  std::vector<SearchResult> similarity_search(std::span<const SearchOp> ops) {
    return run<SearchResult>(ops);
  }
  std::vector<RangeSearchResult> range_search(
      std::span<const RangeSearchOp> ops) {
    return run<RangeSearchResult>(ops);
  }

  // Mutating batches: publish plans (routes) in parallel, then commits
  // store/replica/pointer legs sequentially in op-index order; withdraw
  // and depart are sequential throughout (their reads depend on prior
  // ops' writes), still under per-op substreams.
  std::vector<PublishResult> publish(std::span<const PublishOp> ops) {
    return run<PublishResult>(ops);
  }
  std::vector<WithdrawResult> withdraw(std::span<const WithdrawOp> ops) {
    return run<WithdrawResult>(ops);
  }
  std::vector<DepartResult> depart(std::span<const overlay::NodeId> nodes) {
    std::vector<DepartOp> ops;
    ops.reserve(nodes.size());
    for (const overlay::NodeId node : nodes) ops.push_back(DepartOp{node});
    return run<DepartResult, DepartOp>(ops);
  }

  /// Configured worker count after the 0 = hardware default resolved.
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return executor_.worker_count();
  }

 private:
  /// Runs `ops` as one window on the live stores, keyed by op index, and
  /// unpacks its results.
  template <typename Result, typename Op>
  std::vector<Result> run(std::span<const Op> ops) {
    const std::vector<EpochEngine::Op> window(ops.begin(), ops.end());
    EpochEngine::SealedEpoch sealed =
        executor_.run(window, 0, vsm::kEpochLatest);
    std::vector<Result> results;
    results.reserve(sealed.results.size());
    for (EpochEngine::OpResult& r : sealed.results) {
      results.push_back(std::get<Result>(std::move(r)));
    }
    return results;
  }

  EpochEngine::Executor executor_;
};

}  // namespace meteo::core
