/// Sequential-replay oracle suite for the EpochEngine (DESIGN.md §11).
///
/// The oracle is the engine itself at workers = 1: with per-op
/// substreams and the canonical fold order, a single-threaded seal IS
/// the sequential replay in epoch/op-index order. Every test here runs
/// one deterministic mixed read/write/churn schedule at several worker
/// counts and byte-compares the complete observable output — per-op
/// results, the exported Chrome trace, and the full metric dump —
/// fault-free and under a 5% message-drop plan.

#include "meteorograph/epoch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "meteorograph/batch.hpp"
#include "obs/export.hpp"
#include "sim/fault_plan.hpp"
#include "workload/trace.hpp"

namespace meteo::core {
namespace {

struct TestWorkload {
  workload::Trace trace;
  std::vector<double> weights;
  std::vector<vsm::SparseVector> vectors;  // all items, index = ItemId
  std::vector<vsm::SparseVector> sample;
};

TestWorkload make_workload(std::size_t items, std::uint64_t seed) {
  workload::TraceConfig cfg;
  cfg.num_items = items;
  cfg.num_keywords = 2000;
  cfg.mean_basket = 10.0;
  cfg.max_basket = 100;
  workload::Trace trace = workload::synthesize_trace(cfg, seed);
  std::vector<double> weights =
      trace.keyword_weights(workload::WeightScheme::kIdf);
  std::vector<vsm::SparseVector> vectors;
  vectors.reserve(items);
  for (std::size_t i = 0; i < items; ++i) {
    vectors.push_back(trace.vector_of(i, weights));
  }
  std::vector<vsm::SparseVector> sample;
  for (std::size_t i = 0; i < items; i += 37) sample.push_back(vectors[i]);
  return TestWorkload{std::move(trace), std::move(weights),
                      std::move(vectors), std::move(sample)};
}

SystemConfig small_config(std::size_t nodes = 60) {
  SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.dimension = 2000;
  cfg.load_balance = LoadBalanceMode::kUnusedHashSpace;
  return cfg;
}

// --- byte-exact result serialization ----------------------------------------
// Every result field lands in the transcript with full precision, so any
// divergence between runs — one float, one hop count, one flag — breaks
// byte equality.

void append_flags(std::string& out, const Degradation& d) {
  out += " p=" + std::to_string(d.partial ? 1 : 0);
  out += " d=" + std::to_string(d.degraded ? 1 : 0);
  out += " b=" + std::to_string(d.fault_blocked ? 1 : 0);
}

void append_cost(std::string& out, const OpCost& c) {
  out += " rh=" + std::to_string(c.route_hops);
  out += " wh=" + std::to_string(c.walk_hops);
}

void append(std::string& out, const RetrieveResult& r) {
  out += "retrieve";
  for (const vsm::ScoredItem& s : r.items) {
    out += ' ' + std::to_string(s.id) + ':' + obs::format_double(s.score);
  }
  append_cost(out, r);
  out += " nv=" + std::to_string(r.nodes_visited);
  out += " im=" + std::to_string(r.items_missed);
  append_flags(out, r);
}

void append(std::string& out, const LocateResult& r) {
  out += "locate f=" + std::to_string(r.found ? 1 : 0);
  out += " n=" + std::to_string(r.node);
  out += " vr=" + std::to_string(r.via_replica ? 1 : 0);
  append_cost(out, r);
  append_flags(out, r);
}

void append(std::string& out, const SearchResult& r) {
  out += "search";
  for (std::size_t j = 0; j < r.items.size(); ++j) {
    out += ' ' + std::to_string(r.items[j]) + '@' +
           std::to_string(r.discovery_hops[j]);
  }
  append_cost(out, r);
  out += " lm=" + std::to_string(r.lookup_messages);
  out += " nv=" + std::to_string(r.nodes_visited);
  out += " lf=" + std::to_string(r.lookups_failed);
  append_flags(out, r);
}

void append(std::string& out, const RangeSearchResult& r) {
  out += "range";
  for (const RangeMatch& m : r.matches) {
    out += ' ' + obs::format_double(m.value) + ':' + std::to_string(m.item);
  }
  append_cost(out, r);
  out += " nv=" + std::to_string(r.nodes_visited);
  append_flags(out, r);
}

void append(std::string& out, const PublishResult& r) {
  out += "publish s=" + std::to_string(r.success ? 1 : 0);
  out += " h=" + std::to_string(r.home);
  out += " at=" + std::to_string(r.stored_at);
  out += " ch=" + std::to_string(r.chain_hops);
  out += " rm=" + std::to_string(r.replica_messages);
  out += " pm=" + std::to_string(r.pointer_messages);
  out += " nm=" + std::to_string(r.notify_messages);
  out += " miss=" + std::to_string(r.replicas_missed);
  out += " pmiss=" + std::to_string(r.pointer_missed ? 1 : 0);
  append_cost(out, r);
  append_flags(out, r);
}

void append(std::string& out, const WithdrawResult& r) {
  out += "withdraw rm=" + std::to_string(r.removed ? 1 : 0);
  out += " rr=" + std::to_string(r.replicas_removed);
  out += " pr=" + std::to_string(r.pointer_removed ? 1 : 0);
  out += " m=" + std::to_string(r.messages);
}

void append(std::string& out, const DepartResult& r) {
  out += "depart i=" + std::to_string(r.items_transferred);
  out += " r=" + std::to_string(r.replicas_transferred);
  out += " p=" + std::to_string(r.pointers_transferred);
  out += " s=" + std::to_string(r.subscriptions_transferred);
  out += " a=" + std::to_string(r.attribute_records_transferred);
  out += " m=" + std::to_string(r.messages);
}

void append_sealed(std::string& out, const EpochEngine::SealedEpoch& sealed) {
  out += "== epoch " + std::to_string(sealed.epoch) + " ==\n";
  for (std::size_t i = 0; i < sealed.results.size(); ++i) {
    std::visit([&](const auto& r) { append(out, r); }, sealed.results[i]);
    out += " tc=" + std::string(obs::format_double(sealed.timeout_costs[i]));
    out += '\n';
  }
}

// --- the mixed schedule ------------------------------------------------------

constexpr std::size_t kInitialItems = 100;

/// A fault hook without op scopes: it drops about one message in twenty,
/// chosen by the message's position in its one shared stream, so every
/// fate depends on the order in which the executor sends messages. The
/// hook logs each decision for the transcript.
class SharedStreamHook final : public overlay::FaultHook {
 public:
  overlay::MessageFate on_message(const overlay::MessageContext& c) override {
    const bool drop = splitmix64(++sent_) % 20 == 0;
    log_ += std::to_string(c.from) + '>' + std::to_string(c.to) + '#' +
            std::to_string(c.attempt) + (drop ? "x " : " ");
    return drop ? overlay::MessageFate::kDrop : overlay::MessageFate::kDeliver;
  }
  [[nodiscard]] bool is_stalled(overlay::NodeId) const override {
    return false;
  }
  [[nodiscard]] const std::string& log() const noexcept { return log_; }

 private:
  std::uint64_t sent_ = 0;
  std::string log_;
};

struct RunConfig {
  std::size_t workers = 1;
  double drop_rate = 0.0;
  std::function<bool(std::size_t)> defer = {};
  /// Attach a SharedStreamHook instead of a FaultPlan.
  bool shared_stream = false;
};

/// Replays one fixed mixed read/write/churn schedule — three epochs of
/// interleaved retrieves, locates, searches, range scans, publishes,
/// withdrawals, and departures — and returns the full observable
/// transcript: every result field, the Chrome trace dump, and the CSV
/// metric dump.
std::string run_mixed(const TestWorkload& wl, const RunConfig& rc) {
  Meteorograph sys(small_config(), wl.sample, 31);
  for (vsm::ItemId id = 0; id < kInitialItems; ++id) {
    EXPECT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  const AttributeId attr = sys.register_attribute(0.0, 200.0);
  for (vsm::ItemId id = 0; id < kInitialItems; id += 3) {
    sys.publish_attribute(id, attr, static_cast<double>(id));
  }

  obs::TraceLog log;
  EXPECT_TRUE(sys.set_tracer(&log));
  std::optional<sim::FaultPlan> plan;
  if (rc.drop_rate > 0.0) {
    plan.emplace(sim::FaultPlanConfig{.drop_rate = rc.drop_rate}, 99);
    EXPECT_TRUE(sys.set_fault_hook(&*plan));
  }
  SharedStreamHook shared;
  if (rc.shared_stream) {
    EXPECT_TRUE(sys.set_fault_hook(&shared));
  }

  EpochOptions opts;
  opts.workers = rc.workers;
  opts.defer_read = rc.defer;
  EpochEngine engine(sys, opts);

  std::string out;
  vsm::ItemId next_new = kInitialItems;
  vsm::ItemId next_withdraw = 0;
  overlay::NodeId next_depart = 5;
  for (int e = 0; e < 3; ++e) {
    // Reads and writes woven together so submission order mixes kinds.
    for (int k = 0; k < 4; ++k) {
      engine.submit(RetrieveOp{
          &wl.vectors[static_cast<std::size_t>(e * 13 + k * 7) % kInitialItems],
          5,
          {}});
      const vsm::ItemId lid =
          static_cast<std::size_t>(e * 29 + k * 3) % kInitialItems;
      engine.submit(LocateOp{lid, &wl.vectors[lid], {}});
      engine.submit(PublishOp{next_new, &wl.vectors[next_new], {}});
      ++next_new;
    }
    for (int k = 0; k < 2; ++k) {
      const vsm::SparseVector& qv =
          wl.vectors[static_cast<std::size_t>(e * 7 + k * 11) % kInitialItems];
      engine.submit(SearchOp{{&qv.entries()[0].keyword, 1}, 4, {}});
      engine.submit(WithdrawOp{next_withdraw,
                               &wl.vectors[next_withdraw], {}});
      ++next_withdraw;
    }
    engine.submit(RangeSearchOp{attr, e * 20.0, e * 20.0 + 30.0, {}});
    if (e >= 1) {
      engine.submit(DepartOp{next_depart});
      next_depart += 11;
    }
    // Reads submitted after the churn still pin the same epoch.
    for (int k = 4; k < 8; ++k) {
      engine.submit(RetrieveOp{
          &wl.vectors[static_cast<std::size_t>(e * 13 + k * 7) % kInitialItems],
          5,
          {}});
      const vsm::ItemId lid =
          static_cast<std::size_t>(e * 29 + k * 3) % kInitialItems;
      engine.submit(LocateOp{lid, &wl.vectors[lid], {}});
    }
    engine.submit(PublishOp{next_new, &wl.vectors[next_new], {}});
    ++next_new;
    engine.submit(WithdrawOp{next_withdraw, &wl.vectors[next_withdraw], {}});
    ++next_withdraw;
    engine.submit(RangeSearchOp{attr, 10.0 + e, 90.0 + e, {}});

    append_sealed(out, engine.seal());
  }

  out += obs::trace_to_chrome_json(log);
  out += obs::metrics_to_csv(sys.metrics());
  if (rc.shared_stream) out += shared.log();
  return out;
}

// --- oracle: 1 worker (sequential replay) vs N workers -----------------------

TEST(EpochOracle, MixedChurnScheduleMatchesSequentialReplay) {
  const TestWorkload wl = make_workload(160, 41);
  const std::string oracle = run_mixed(wl, {.workers = 1});
  EXPECT_EQ(run_mixed(wl, {.workers = 2}), oracle);
  EXPECT_EQ(run_mixed(wl, {.workers = 8}), oracle);
}

TEST(EpochOracle, MixedChurnScheduleMatchesSequentialReplayUnderDrops) {
  const TestWorkload wl = make_workload(160, 42);
  const std::string oracle = run_mixed(wl, {.workers = 1, .drop_rate = 0.05});
  EXPECT_EQ(run_mixed(wl, {.workers = 2, .drop_rate = 0.05}), oracle);
  EXPECT_EQ(run_mixed(wl, {.workers = 8, .drop_rate = 0.05}), oracle);
}

// --- oracle: deferred reads vs pre-write reads -------------------------------
// Deferring every read past the write phase forces the versioned store
// views; deferring none takes the live fast path. Byte equality between
// the two proves a pinned read observes exactly epoch E regardless of
// when it physically runs.

TEST(EpochOracle, DeferredReadsObserveExactlyThePinnedEpoch) {
  const TestWorkload wl = make_workload(160, 43);
  const auto defer_all = [](std::size_t) { return true; };
  const std::string eager = run_mixed(wl, {.workers = 8});
  EXPECT_EQ(run_mixed(wl, {.workers = 8, .defer = defer_all}), eager);
  EXPECT_EQ(run_mixed(wl, {.workers = 1, .defer = defer_all}), eager);
}

TEST(EpochOracle, DeferredReadsObserveExactlyThePinnedEpochUnderDrops) {
  const TestWorkload wl = make_workload(160, 44);
  const auto defer_all = [](std::size_t) { return true; };
  const std::string eager = run_mixed(wl, {.workers = 8, .drop_rate = 0.05});
  EXPECT_EQ(
      run_mixed(wl, {.workers = 8, .drop_rate = 0.05, .defer = defer_all}),
      eager);
}

// --- epoch visibility semantics ----------------------------------------------

TEST(EpochOracle, WriteVisibilityFlipsAtTheEpochBoundary) {
  const TestWorkload wl = make_workload(120, 45);
  Meteorograph sys(small_config(), wl.sample, 45);
  for (vsm::ItemId id = 0; id < 100; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }

  EpochEngine engine(sys, {.workers = 4, .seed = 9, .defer_read = {}});
  const vsm::ItemId victim = 7;
  const vsm::ItemId fresh = 100;
  const std::size_t before = engine.submit(
      LocateOp{victim, &wl.vectors[victim], {}});
  engine.submit(WithdrawOp{victim, &wl.vectors[victim], {}});
  const std::size_t after = engine.submit(
      LocateOp{victim, &wl.vectors[victim], {}});
  engine.submit(PublishOp{fresh, &wl.vectors[fresh], {}});
  const std::size_t unseen = engine.submit(
      LocateOp{fresh, &wl.vectors[fresh], {}});
  const auto first = engine.seal();
  EXPECT_EQ(first.epoch, 0u);
  // Within the window, every read pins epoch 0: the withdrawal and the
  // publish are invisible no matter where the read sits in the order.
  EXPECT_TRUE(std::get<LocateResult>(first.results[before]).found);
  EXPECT_TRUE(std::get<LocateResult>(first.results[after]).found);
  EXPECT_FALSE(std::get<LocateResult>(first.results[unseen]).found);
  EXPECT_TRUE(std::get<WithdrawResult>(first.results[1]).removed);
  EXPECT_TRUE(std::get<PublishResult>(first.results[3]).success);

  // One epoch later both flips are visible.
  const std::size_t gone = engine.submit(
      LocateOp{victim, &wl.vectors[victim], {}});
  const std::size_t seen = engine.submit(
      LocateOp{fresh, &wl.vectors[fresh], {}});
  const auto second = engine.seal();
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_FALSE(std::get<LocateResult>(second.results[gone]).found);
  EXPECT_TRUE(std::get<LocateResult>(second.results[seen]).found);
}

TEST(EpochOracle, FreshEngineSeesItemsAnEarlierEnginePublished) {
  const TestWorkload wl = make_workload(60, 47);
  Meteorograph sys(small_config(), wl.sample, 47);
  for (vsm::ItemId id = 0; id < 50; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  {
    EpochEngine first(sys, {.workers = 2, .seed = 3, .defer_read = {}});
    for (vsm::ItemId id = 50; id < 53; ++id) {
      first.submit(PublishOp{id, &wl.vectors[id], {}});
      ASSERT_TRUE(std::get<PublishResult>(first.seal().results[0]).success);
    }
  }
  // The items carry the first engine's write stamps; a new engine must
  // pin an epoch past them rather than start over at 0.
  EpochEngine second(sys, {.workers = 2, .seed = 4, .defer_read = {}});
  EXPECT_EQ(second.epoch(), 3u);
  const std::size_t late = second.submit(LocateOp{51, &wl.vectors[51], {}});
  const std::size_t early = second.submit(LocateOp{5, &wl.vectors[5], {}});
  const auto sealed = second.seal();
  EXPECT_EQ(sealed.epoch, 3u);
  EXPECT_TRUE(std::get<LocateResult>(sealed.results[late]).found);
  EXPECT_TRUE(std::get<LocateResult>(sealed.results[early]).found);
}

TEST(EpochOracle, EpochMetricsTrackSeals) {
  const TestWorkload wl = make_workload(60, 46);
  Meteorograph sys(small_config(), wl.sample, 46);
  for (vsm::ItemId id = 0; id < 30; ++id) {
    ASSERT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  EpochEngine engine(sys, {.workers = 2, .seed = 1, .defer_read = {}});
  engine.submit(LocateOp{3, &wl.vectors[3], {}});
  (void)engine.seal();
  engine.submit(LocateOp{4, &wl.vectors[4], {}});
  (void)engine.seal();
  EXPECT_EQ(engine.epoch(), 2u);
  const std::string csv = obs::metrics_to_csv(sys.metrics());
  EXPECT_NE(csv.find("counter,epoch.advances,,value,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,epoch.current,,value,2"), std::string::npos);
}


// --- pinned fingerprints -----------------------------------------------------
// The oracles above compare one worker against N workers of the *same*
// code. These fingerprints pin the transcripts themselves, captured
// before BatchEngine and EpochEngine were merged into one window
// executor, so they prove the merge changed no result, span, or metric.
// If one ever changes on purpose, document the behavior change and paste
// the new value from the failure message — never re-capture silently.

/// FNV-1a over the transcript bytes.
std::uint64_t fingerprint(const std::string& transcript) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : transcript) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// BatchEngine over a churned, lossy, traced system: one homogeneous
/// batch of each kind — publish, retrieve, locate, search, range search,
/// withdraw, depart — then the Chrome trace and the CSV metric dump.
std::string run_batches(const TestWorkload& wl, double drop_rate) {
  Meteorograph sys(small_config(), wl.sample, 32);
  for (vsm::ItemId id = 0; id < kInitialItems; ++id) {
    EXPECT_TRUE(sys.publish(id, wl.vectors[id]).success);
  }
  const AttributeId attr = sys.register_attribute(0.0, 200.0);
  for (vsm::ItemId id = 0; id < kInitialItems; id += 3) {
    sys.publish_attribute(id, attr, static_cast<double>(id));
  }

  obs::TraceLog log;
  EXPECT_TRUE(sys.set_tracer(&log));
  sim::FaultPlan plan(sim::FaultPlanConfig{.drop_rate = drop_rate}, 98);
  EXPECT_TRUE(sys.set_fault_hook(&plan));
  BatchEngine engine(sys, {.workers = 4, .seed = 17});

  std::vector<PublishOp> publishes;
  for (vsm::ItemId id = kInitialItems; id < kInitialItems + 12; ++id) {
    publishes.push_back(PublishOp{id, &wl.vectors[id], {}});
  }
  std::vector<RetrieveOp> retrieves;
  std::vector<LocateOp> locates;
  std::vector<SearchOp> searches;
  for (std::size_t i = 0; i < kInitialItems + 12; i += 5) {
    retrieves.push_back(RetrieveOp{&wl.vectors[i], 5, {}});
    locates.push_back(LocateOp{i, &wl.vectors[i], {}});
    searches.push_back(SearchOp{{&wl.vectors[i].entries()[0].keyword, 1},
                                4,
                                {}});
  }
  std::vector<RangeSearchOp> ranges;
  for (int k = 0; k < 6; ++k) {
    ranges.push_back(RangeSearchOp{attr, k * 15.0, k * 15.0 + 40.0, {}});
  }
  std::vector<WithdrawOp> withdraws;
  for (vsm::ItemId id = 0; id < 30; id += 4) {
    withdraws.push_back(WithdrawOp{id, &wl.vectors[id], {}});
  }
  const std::vector<overlay::NodeId> departs = {5, 16, 27};

  std::string out;
  const auto emit = [&out](const auto& results) {
    for (const auto& r : results) {
      append(out, r);
      out += '\n';
    }
  };
  emit(engine.publish(publishes));
  emit(engine.retrieve(retrieves));
  emit(engine.locate(locates));
  emit(engine.similarity_search(searches));
  emit(engine.range_search(ranges));
  emit(engine.withdraw(withdraws));
  emit(engine.depart(departs));
  emit(engine.retrieve(retrieves));
  out += obs::trace_to_chrome_json(log);
  out += obs::metrics_to_csv(sys.metrics());
  return out;
}

// Captured from the two-engine revision (separate batch.cpp and
// epoch.cpp executors) — see the comment above before touching these.
constexpr std::uint64_t kMixedGolden = 17467727105200733777ULL;
constexpr std::uint64_t kMixedDropsGolden = 5285784884515168116ULL;
constexpr std::uint64_t kBatchDropsGolden = 3519345148326067781ULL;

TEST(EngineFingerprint, EpochMixedSchedule) {
  const TestWorkload wl = make_workload(160, 41);
  EXPECT_EQ(fingerprint(run_mixed(wl, {.workers = 4})), kMixedGolden);
}

TEST(EngineFingerprint, EpochMixedScheduleUnderDrops) {
  const TestWorkload wl = make_workload(160, 42);
  EXPECT_EQ(fingerprint(run_mixed(wl, {.workers = 4, .drop_rate = 0.05})),
            kMixedDropsGolden);
}

// Captured after the window executor was merged. A hook without op
// scopes makes the executor run the whole window on one thread and draw
// every fate from the hook's shared stream in its serial order: the
// pass's reads, then the plans of the publishes ahead of the first
// depart, then the write spine's commits. The transcript carries the
// hook's per-message log, so any reordering of those draws changes it.
constexpr std::uint64_t kMixedSharedStreamGolden = 3629845910060949653ULL;

TEST(EngineFingerprint, EpochMixedScheduleUnderScopelessHook) {
  const TestWorkload wl = make_workload(160, 48);
  EXPECT_EQ(fingerprint(run_mixed(wl, {.workers = 1, .shared_stream = true})),
            kMixedSharedStreamGolden);
  EXPECT_EQ(fingerprint(run_mixed(wl, {.workers = 4, .shared_stream = true})),
            kMixedSharedStreamGolden);
}

TEST(EngineFingerprint, BatchTranscriptUnderDrops) {
  const TestWorkload wl = make_workload(160, 47);
  EXPECT_EQ(fingerprint(run_batches(wl, 0.05)), kBatchDropsGolden);
}

}  // namespace
}  // namespace meteo::core
