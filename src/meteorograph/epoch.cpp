#include "meteorograph/epoch.hpp"

#include <algorithm>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"
#include "obs/names.hpp"
#include "overlay/fault_hook.hpp"

namespace meteo::core {

namespace {

/// Closes the per-operation fate scope even when the op throws, so a
/// worker thread never leaks an active scope into the next op it runs.
class ScopeGuard {
 public:
  ScopeGuard(overlay::FaultHook* hook, std::uint64_t salt,
             std::uint64_t first_message = 0)
      : hook_(hook) {
    if (hook_ != nullptr) hook_->begin_op_scope(salt, first_message);
  }
  ~ScopeGuard() { close(); }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

  /// Ends the scope early and returns its next in-scope message index;
  /// used to resume one publish's fate stream across the plan/commit
  /// split.
  std::uint64_t close() {
    if (hook_ != nullptr) {
      resume_ = hook_->end_op_scope();
      hook_ = nullptr;
    }
    return resume_;
  }

 private:
  overlay::FaultHook* hook_;
  std::uint64_t resume_ = 0;
};

/// Op variant layout: alternatives below this index are reads, the rest
/// (publish, withdraw, depart) mutate.
inline constexpr std::size_t kFirstWriteAlternative = 4;

/// Applies `fn` to every node's item, replica, and directory store.
template <typename Nodes, typename Fn>
void each_store(Nodes& nodes, const Fn& fn) {
  for (auto& data : nodes) {
    fn(data.items);
    fn(data.replicas);
    fn(data.directory);
  }
}

}  // namespace

/// The window bracket: opening it applies due crashes once and freezes
/// the membership snapshot for the parallel pass (set_fault_hook and
/// set_tracer are refused until it closes); closing it also clears the
/// write-span stamp. Closes on every exit path, including exceptions
/// rethrown from pool workers.
struct EpochEngine::Executor::Bracket {
  explicit Bracket(Meteorograph& sys) : system(sys) { system.begin_batch(); }
  ~Bracket() {
    system.span_epoch_ = 0;
    system.end_batch();
  }
  Bracket(const Bracket&) = delete;
  Bracket& operator=(const Bracket&) = delete;
  Meteorograph& system;
};

EpochEngine::Executor::Executor(Meteorograph& system, std::size_t workers,
                                std::uint64_t seed)
    : system_(system),
      workers_(workers != 0
                   ? workers
                   : std::max<std::size_t>(
                         1, std::thread::hardware_concurrency())),
      seed_(seed) {
  if (workers_ > 1) pool_.emplace(workers_);
}

EpochEngine::SealedEpoch EpochEngine::Executor::run(
    std::span<const Op> ops, std::uint64_t first_key, vsm::Epoch pinned,
    const std::function<bool(std::size_t)>& defer) {
  const bool versioned = pinned != vsm::kEpochLatest;
  const std::uint64_t write_stamp = versioned ? pinned + 1 : 0;

  // Crashes land and node state syncs when the bracket opens, so the
  // stores are armed only afterwards: they retain displaced versions
  // and stamp every mutation with the write epoch.
  const Bracket bracket(system_);
  if (versioned) {
    each_store(system_.node_data_, [write_stamp](auto& store) {
      store.retain_versions(true);
      store.set_write_epoch(write_stamp);
    });
  }

  overlay::FaultHook* hook = system_.network().fault_hook();
  const bool scoped = hook != nullptr && hook->supports_op_scopes();
  overlay::FaultHook* const scope_hook = scoped ? hook : nullptr;
  // A hook without per-op fate scopes decides fates off one shared,
  // order-dependent stream, and AngleStore's LSI projection cache
  // fills lazily under reads: either one serializes the parallel
  // phases. Scopes are used even at one worker so the fate streams —
  // and with them results and metrics — match any other worker count.
  const bool serial = (hook != nullptr && !scoped) ||
                      system_.config().local_ranking == LocalRanking::kLsi;
  auto run_parallel = [&](std::size_t count,
                          const std::function<void(std::size_t)>& body) {
    if (!serial && pool_.has_value() && count > 1) {
      pool_->parallel_for(0, count, body);
    } else {
      for (std::size_t k = 0; k < count; ++k) body(k);
    }
  };

  /// A publish planned ahead of its commit, and the in-scope message
  /// index its fate stream resumes at.
  struct Planned {
    Meteorograph::PublishPlan plan;
    std::uint64_t resume = 0;
  };

  const std::size_t n = ops.size();
  SealedEpoch sealed;
  sealed.epoch = versioned ? pinned : 0;  // the read-span stamp
  sealed.results.resize(n);
  sealed.timeout_costs.assign(n, 0.0);
  std::vector<Meteorograph::OpTrace> traces(n);

  // Partition the window. The parallel pass takes the non-deferred
  // reads and the plans of the publishes ahead of the first depart;
  // writes keep strict submission order.
  std::vector<std::size_t> reads;
  std::vector<std::size_t> deferred;
  std::vector<std::size_t> planned;
  std::vector<std::size_t> writes;
  bool departed = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].index() < kFirstWriteAlternative) {
      const bool later = defer != nullptr && defer(first_key + i);
      (later ? deferred : reads).push_back(i);
      continue;
    }
    writes.push_back(i);
    departed = departed || std::holds_alternative<DepartOp>(ops[i]);
    if (!departed && std::holds_alternative<PublishOp>(ops[i])) {
      planned.push_back(i);
    }
  }

  // One read op, observing `pinned`. Runs on any worker: the op writes
  // only its own results/traces slot and draws from its own substreams.
  const ReadView view{pinned};
  auto exec_read = [&](std::size_t i) {
    Rng rng = substream(first_key + i);
    ScopeGuard scope(scope_hook, scope_salt(first_key + i));
    OpResult& out = sealed.results[i];
    Meteorograph::OpTrace& trace = traces[i];
    if (const auto* ret = std::get_if<RetrieveOp>(&ops[i])) {
      METEO_EXPECTS(ret->query != nullptr);
      out = system_.retrieve_op(*ret->query, ret->amount, ret->options, rng,
                                trace, view);
    } else if (const auto* loc = std::get_if<LocateOp>(&ops[i])) {
      METEO_EXPECTS(loc->vector != nullptr);
      out = system_.locate_op(loc->item, *loc->vector, loc->options, rng,
                              trace, view);
    } else if (const auto* sim = std::get_if<SearchOp>(&ops[i])) {
      METEO_EXPECTS(!sim->keywords.empty());
      out = system_.search_op(sim->keywords, sim->k, sim->options, rng, trace,
                              view);
    } else {
      const auto& range = std::get<RangeSearchOp>(ops[i]);
      out = system_.range_search_op(range.attribute, range.lo, range.hi,
                                    range.options, rng, trace, view);
    }
  };
  // Publish `i`'s plan (source selection + routes) under its own
  // substreams; the fate scope closes here and the commit resumes it.
  auto plan_one = [&](std::size_t i, Planned& out) {
    const auto& pub = std::get<PublishOp>(ops[i]);
    METEO_EXPECTS(pub.vector != nullptr);
    Rng rng = substream(first_key + i);
    ScopeGuard scope(scope_hook, scope_salt(first_key + i));
    out.plan = system_.plan_publish(*pub.vector, pub.options, rng);
    out.resume = scope.close();
  };
  auto run_deferred = [&] {
    run_parallel(deferred.size(),
                 [&](std::size_t k) { exec_read(deferred[k]); });
  };

  // Parallel pass — the stores physically ARE the read epoch here, so
  // a pinned view takes the zero-overhead fast path.
  std::vector<Planned> plans(planned.size());
  run_parallel(reads.size() + plans.size(), [&](std::size_t k) {
    if (k < reads.size()) {
      exec_read(reads[k]);
    } else {
      plan_one(planned[k - reads.size()], plans[k - reads.size()]);
    }
  });

  // Write spine — mutations strictly in submission order, each under its
  // own substreams. Spans these commits finish carry the write stamp.
  {
    system_.span_epoch_ = write_stamp;
    bool deferred_done = deferred.empty();
    std::size_t next_plan = 0;
    for (const std::size_t i : writes) {
      const Op& op = ops[i];
      const std::uint64_t key = first_key + i;
      // Depart fence: a departure rebuilds the leaver's state from the
      // live view only (its pre-depart versions vanish), so every pinned
      // reader must drain before the first depart commits.
      if (!deferred_done && std::holds_alternative<DepartOp>(op)) {
        run_deferred();
        deferred_done = true;
      }
      if (const auto* pub = std::get_if<PublishOp>(&op)) {
        // The pass planned every publish ahead of the first depart; the
        // ones after it plan here, against the new membership.
        if (next_plan == plans.size()) plan_one(i, plans.emplace_back());
        Planned& p = plans[next_plan++];
        ScopeGuard scope(scope_hook, scope_salt(key), p.resume);
        sealed.timeout_costs[i] = p.plan.route.stats.timeout_cost;
        sealed.results[i] =
            system_.commit_publish(pub->id, *pub->vector, p.plan);
        continue;
      }
      Rng rng = substream(key);
      ScopeGuard scope(scope_hook, scope_salt(key));
      if (const auto* wdr = std::get_if<WithdrawOp>(&op)) {
        METEO_EXPECTS(wdr->vector != nullptr);
        sealed.results[i] =
            system_.withdraw_with(wdr->item, *wdr->vector, wdr->options, rng);
      } else {
        sealed.results[i] = system_.depart_node(std::get<DepartOp>(op).node);
      }
    }
    // Deferred reads that no depart forced earlier. They run against the
    // mutated stores yet observe exactly the pinned epoch through the
    // retained versions.
    if (!deferred_done) run_deferred();
  }

  // Fold — writes already folded inline at their commits (submission
  // order); now the reads fold in submission order. Histogram
  // accumulation is float-order-sensitive and spans append to the trace
  // log here, so this order must not depend on workers or deferral.
  {
    for (std::size_t i = 0; i < n; ++i) {
      if (ops[i].index() >= kFirstWriteAlternative) continue;
      traces[i].span.set_epoch(sealed.epoch);
      std::visit(
          [&](auto& result) {
            using R = std::decay_t<decltype(result)>;
            if constexpr (std::is_same_v<R, RetrieveResult>) {
              system_.record_retrieve(result, traces[i]);
            } else if constexpr (std::is_same_v<R, LocateResult>) {
              system_.record_locate(result, traces[i]);
            } else if constexpr (std::is_same_v<R, SearchResult>) {
              system_.record_search(result, traces[i]);
            } else if constexpr (std::is_same_v<R, RangeSearchResult>) {
              system_.record_range_search(result, traces[i]);
            }
          },
          sealed.results[i]);
      sealed.timeout_costs[i] =
          traces[i].route.timeout_cost + traces[i].walk.timeout_cost;
    }
  }

  // Window boundary: retire the superseded versions.
  if (versioned) {
    each_store(system_.node_data_, [](auto& store) { store.gc(); });
  }
  return sealed;
}

EpochEngine::EpochEngine(Meteorograph& system, EpochOptions options)
    : system_(system),
      executor_(system, options.workers, options.seed),
      defer_read_(std::move(options.defer_read)) {
  // The LSI projection cache mutates lazily under top_k_lsi: a pinned
  // reader would race the cache fill and the cache itself is unversioned.
  METEO_EXPECTS(system_.config().local_ranking != LocalRanking::kLsi);
}

EpochEngine::~EpochEngine() {
  each_store(system_.node_data_, [](auto& store) {
    store.retain_versions(false);
    store.set_write_epoch(0);
    store.gc();
  });
  system_.span_epoch_ = 0;
}

std::size_t EpochEngine::push(Op op) {
  pending_.push_back(std::move(op));
  ++next_global_;
  return pending_.size() - 1;
}

std::size_t EpochEngine::submit(const RetrieveOp& op) { return push(op); }
std::size_t EpochEngine::submit(const LocateOp& op) { return push(op); }
std::size_t EpochEngine::submit(const SearchOp& op) { return push(op); }
std::size_t EpochEngine::submit(const RangeSearchOp& op) { return push(op); }
std::size_t EpochEngine::submit(const PublishOp& op) { return push(op); }
std::size_t EpochEngine::submit(const WithdrawOp& op) { return push(op); }
std::size_t EpochEngine::submit(const DepartOp& op) { return push(op); }

EpochEngine::SealedEpoch EpochEngine::seal() {
  const vsm::Epoch pinned = system_.epoch_;
  SealedEpoch sealed = executor_.run(
      pending_, next_global_ - pending_.size(), pinned, defer_read_);

  // Epoch boundary: advance the counter, publish the epoch metrics
  // (docs/OBSERVABILITY.md).
  system_.epoch_ = pinned + 1;
  pending_.clear();
  if (!epoch_advances_.has_value()) {
    epoch_gauge_.emplace(system_.metrics().gauge(obs::names::kEpochCurrent));
    epoch_advances_.emplace(
        system_.metrics().counter(obs::names::kEpochAdvances));
  }
  epoch_gauge_->set(static_cast<double>(system_.epoch_));
  *epoch_advances_ += 1;
  return sealed;
}

}  // namespace meteo::core
