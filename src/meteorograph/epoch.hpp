#pragma once

/// \file epoch.hpp
/// The execution engine over a Meteorograph system (DESIGN.md §11).
///
/// Every bulk operation runs through one window executor,
/// EpochEngine::Executor. A window is a vector of ops of any kinds, run
/// in four phases: (1) one parallel pass over the non-deferred reads and
/// the plans (source selection + routes) of the publishes ahead of the
/// first depart — both read only membership, which only a depart
/// changes; (2) a sequential write spine that commits publishes,
/// withdrawals, and departures in submission order; (3) the reads
/// deferred past the spine; (4) a fold of read metrics and spans in
/// submission order (writes fold at their commits). Each op draws from
/// its own RNG and message-fault substreams, so results, traces, and
/// metric exports are bit-identical at any worker count.
///
/// An EpochEngine collects a mixed window through submit() and runs it
/// on seal() as epoch E: reads pin E, writes commit into E+1, and each
/// op's substream key is its global submission index. A BatchEngine
/// (meteorograph/batch.hpp) runs one homogeneous vector on the live
/// stores, keyed by op index. Op structs borrow their vectors: the
/// caller keeps the workload alive until the executing call returns.
///
///   EpochEngine engine(sys, {.workers = 8, .seed = 42});
///   engine.submit(RetrieveOp{...});
///   engine.submit(PublishOp{...});
///   auto sealed = engine.seal();   // one epoch boundary

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "meteorograph/meteorograph.hpp"

namespace meteo::core {

struct RetrieveOp {
  const vsm::SparseVector* query = nullptr;
  std::size_t amount = 1;
  RetrieveOptions options;
};

struct LocateOp {
  vsm::ItemId item = 0;
  const vsm::SparseVector* vector = nullptr;
  LocateOptions options;
};

struct SearchOp {
  // meteo-lint: borrow_ok(op structs borrow from the caller-owned workload, which outlives the window run by contract)
  std::span<const vsm::KeywordId> keywords;
  std::size_t k = 0;  ///< 0 = discover all matching items
  SearchOptions options;
};

struct RangeSearchOp {
  AttributeId attribute = 0;
  double lo = 0.0;
  double hi = 0.0;
  RangeSearchOptions options;
};

struct PublishOp {
  vsm::ItemId id = 0;
  const vsm::SparseVector* vector = nullptr;
  PublishOptions options;
};

struct WithdrawOp {
  vsm::ItemId item = 0;
  const vsm::SparseVector* vector = nullptr;
  WithdrawOptions options;
};

/// Graceful departure of `node`, as a submittable op (BatchEngine's
/// depart() takes a bare node span instead).
struct DepartOp {
  overlay::NodeId node = overlay::kInvalidNode;
};

struct EpochOptions {
  /// Worker threads for the parallel phases; 0 = hardware_concurrency().
  std::size_t workers = 0;
  /// Root of every per-operation RNG/fault substream (global op index
  /// keyed: an op keeps its streams no matter how epochs are cut).
  std::uint64_t seed = 0x6d657465'6f726f67ULL;
  /// Interleaving seam: return true to defer the read with this global
  /// op index past the epoch's write spine (it still observes epoch E).
  /// Null defers nothing. Mutating ops ignore it.
  std::function<bool(std::size_t)> defer_read;
};

class EpochEngine {
 public:
  /// Any operation; alternatives before PublishOp are reads.
  using Op = std::variant<RetrieveOp, LocateOp, SearchOp, RangeSearchOp,
                          PublishOp, WithdrawOp, DepartOp>;
  using OpResult =
      std::variant<RetrieveResult, LocateResult, SearchResult,
                   RangeSearchResult, PublishResult, WithdrawResult,
                   DepartResult>;

  struct SealedEpoch {
    /// The epoch the reads pinned; writes committed into `epoch + 1`.
    vsm::Epoch epoch = 0;
    /// Per-op results, parallel to submission order within the window.
    std::vector<OpResult> results;
    /// Simulated seconds each op spent waiting on timeouts (route + walk
    /// legs; a publish counts its plan route — commit legs fold straight
    /// into the metric registry). The server's deadline budget input.
    std::vector<double> timeout_costs;
  };

  /// The one window executor (see the file comment). Nested so that
  /// Meteorograph's friendship covers it; BatchEngine owns one too.
  class Executor {
   public:
    /// Binds to `system` (non-owning). `workers` = 0 means
    /// hardware_concurrency(); the pool is created once here.
    Executor(Meteorograph& system, std::size_t workers, std::uint64_t seed);

    /// Runs `ops` as one window. Op i draws from substream key
    /// `first_key + i` (and `defer` sees that key). A `pinned` epoch E
    /// makes reads observe E and writes commit into E+1, with version
    /// retention armed for the window and collected at its end; spans
    /// are stamped E (reads) and E+1 (writes). kEpochLatest runs on the
    /// live stores without retention and stamps spans 0.
    SealedEpoch run(std::span<const Op> ops, std::uint64_t first_key,
                    vsm::Epoch pinned,
                    const std::function<bool(std::size_t)>& defer = {});

    /// Worker count after the 0 = hardware default resolved.
    [[nodiscard]] std::size_t worker_count() const noexcept {
      return workers_;
    }

   private:
    struct Bracket;

    /// Independent RNG stream for substream key `key`: identical
    /// regardless of which worker runs the op or in what order.
    [[nodiscard]] Rng substream(std::uint64_t key) const noexcept {
      return Rng(splitmix64(seed_ + 0x9e3779b97f4a7c15ULL * (key + 1)));
    }
    /// Fault-fate substream selector for `key` (distinct from the RNG
    /// stream so fates and draws never correlate).
    [[nodiscard]] std::uint64_t scope_salt(std::uint64_t key) const noexcept {
      return splitmix64(seed_ ^ (0xbf58476d1ce4e5b9ULL * (key + 1)));
    }

    Meteorograph& system_;
    std::size_t workers_;
    std::uint64_t seed_;
    std::optional<ThreadPool> pool_;  // engaged only when workers > 1
  };

  /// Binds to `system` for the engine's lifetime (non-owning); each
  /// seal() arms version retention on every node store for its window.
  /// The LSI ranking mode mutates a per-node projection cache under
  /// reads, so it cannot serve pinned snapshots.
  /// \pre config.local_ranking != kLsi
  explicit EpochEngine(Meteorograph& system, EpochOptions options = {});

  /// Disarms version retention and drops retained versions, returning
  /// the system to plain facade behavior.
  ~EpochEngine();

  EpochEngine(const EpochEngine&) = delete;
  EpochEngine& operator=(const EpochEngine&) = delete;

  // Submission window. Each call returns the op's index within the
  // current window (= its index into SealedEpoch::results).
  std::size_t submit(const RetrieveOp& op);
  std::size_t submit(const LocateOp& op);
  std::size_t submit(const SearchOp& op);
  std::size_t submit(const RangeSearchOp& op);
  std::size_t submit(const PublishOp& op);
  std::size_t submit(const WithdrawOp& op);
  std::size_t submit(const DepartOp& op);

  /// Executes the window as one epoch and advances the epoch counter.
  /// Empty windows still advance (an idle server heartbeat).
  SealedEpoch seal();

  /// Ops submitted and not yet sealed.
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }

  /// The epoch the next seal()'s reads will pin. The counter belongs to
  /// the system, so an engine continues where an earlier one stopped.
  [[nodiscard]] vsm::Epoch epoch() const noexcept { return system_.epoch_; }

  /// Configured worker count after the 0 = hardware default resolved.
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return executor_.worker_count();
  }

 private:
  std::size_t push(Op op);

  Meteorograph& system_;
  Executor executor_;
  std::function<bool(std::size_t)> defer_read_;
  std::vector<Op> pending_;
  /// Global index of the next submitted op; the pending window holds
  /// the indexes just below it.
  std::uint64_t next_global_ = 0;
  std::optional<obs::Gauge> epoch_gauge_;
  std::optional<obs::Counter> epoch_advances_;
};

}  // namespace meteo::core
