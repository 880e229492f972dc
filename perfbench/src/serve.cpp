/// Closed-loop serving workloads through core::Server (serve_churn and
/// query_mix). One window of 64 requests is outstanding at a
/// time (queue capacity == ops per epoch), so a request's latency from
/// submit to its completion callback is service time, never backlog.

#include <cmath>
#include <deque>
#include <string>
#include <type_traits>
#include <variant>

#include "common/assert.hpp"
#include "corpus.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "meteorograph/server.hpp"
#include "sim/fault_plan.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = meteo::core;
namespace vsm = meteo::vsm;
namespace overlay = meteo::overlay;

constexpr std::size_t kWindow = 64;
constexpr std::size_t kMaxDeparts = 8;

/// Both workloads run with 2% message drop and a 2.0 s simulated deadline.
constexpr double kDropRate = 0.02;
constexpr double kDeadlineSeconds = 2.0;

struct ServeSpec {
  /// Windows per second of --seconds: sets the fixed work of a run so it
  /// measures about --seconds on a 4-vCPU host.
  double windows_per_second = 1.0;
  /// Windows the facade replay of a traced run covers.
  std::size_t traced_windows = 8;
};

ServeSpec spec_of(const std::string& workload) {
  if (workload == "serve_churn") return {2.2, 8};
  return {900.0, 400};  // query_mix
}

/// Requests of each kind in one 64-request window.
struct KindCount {
  Kind kind;
  std::size_t count;
};
/// The serve_mixed mix: 36% locate, 20% retrieve, 16% search, 8% range,
/// 12% publish, 7% withdraw, and one slot that is a depart in at most
/// kMaxDeparts windows and a withdraw otherwise.
constexpr KindCount kChurnMix[] = {
    {Kind::kLocate, 23}, {Kind::kRetrieve, 13}, {Kind::kSearch, 10},
    {Kind::kRange, 5},   {Kind::kPublish, 8},   {Kind::kWithdraw, 4},
    {Kind::kDepart, 1},
};
/// query_mix: 45% locate, 25% retrieve, 20% search, 10% range.
constexpr KindCount kQueryMix[] = {
    {Kind::kLocate, 29},
    {Kind::kRetrieve, 16},
    {Kind::kSearch, 13},
    {Kind::kRange, 6},
};

template <std::size_t N>
std::vector<Kind> window_mix(const KindCount (&mix)[N]) {
  std::vector<Kind> kinds;
  for (const KindCount& k : mix) kinds.insert(kinds.end(), k.count, k.kind);
  METEO_EXPECTS(kinds.size() == kWindow);
  return kinds;
}

/// The seed-derived request sequence of one run. Requests borrow their
/// vectors from the corpus and their keyword spans from `keywords`.
struct Schedule {
  std::vector<core::Server::Request> requests;
  std::vector<Kind> kinds;
  std::deque<vsm::KeywordId> keywords;  // stable addresses
  std::size_t windows = 0;
};

Schedule make_schedule(const std::string& workload, const Setup& setup,
                       std::uint64_t seed, std::size_t windows) {
  const Corpus& c = *setup.corpus;
  const std::size_t n_items = c.vectors.size();
  Schedule s;

  const bool churn = workload == "serve_churn";
  s.windows = windows;
  meteo::Rng rng(meteo::splitmix64(seed ^ 0x5e7e5eedULL));
  // `live` holds items visible at the current window's pinned epoch and
  // not yet withdrawn; items published in this window join at its end, so
  // every locate and withdraw targets an item its epoch can see.
  std::vector<vsm::ItemId> live;
  for (vsm::ItemId id = 0; id < base_items(c); ++id) live.push_back(id);
  std::vector<vsm::ItemId> joining;
  vsm::ItemId next_new = base_items(c);
  std::vector<overlay::NodeId> departed;
  const std::size_t nodes = setup.system->network().size();

  auto locate = [&] {
    const vsm::ItemId id = live[rng.below(live.size())];
    s.requests.push_back(core::LocateOp{id, &c.vectors[id], {}});
    s.kinds.push_back(Kind::kLocate);
  };
  auto shuffle = [&](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.below(i)]);
    }
  };
  const std::vector<Kind> composition = churn ? window_mix(kChurnMix)
                                              : window_mix(kQueryMix);
  // Retrieve and search queries are a systematic sample of the corpus, one
  // item every n_items / (queries of the kind in the run), asked in a
  // seed-shuffled order. Every run of a given length asks the same query
  // set, so the few queries whose walks run long (their message counts are
  // heavy-tailed) weigh the same in every run, not as many as a random
  // draw happened to pick.
  auto query_pool = [&](Kind kind) {
    const std::size_t count =
        windows * static_cast<std::size_t>(
                      std::count(composition.begin(), composition.end(), kind));
    std::vector<vsm::ItemId> pool(count);
    for (std::size_t j = 0; j < count; ++j) pool[j] = j * n_items / count;
    shuffle(pool);
    return pool;
  };
  const std::vector<vsm::ItemId> retrieve_pool = query_pool(Kind::kRetrieve);
  const std::vector<vsm::ItemId> search_pool = query_pool(Kind::kSearch);
  std::size_t retrieves = 0;
  std::size_t searches = 0;

  auto retrieve = [&] {
    const vsm::ItemId id = retrieve_pool[retrieves++];
    s.requests.push_back(core::RetrieveOp{&c.vectors[id], 5, {}});
    s.kinds.push_back(Kind::kRetrieve);
  };
  auto search = [&] {
    const vsm::ItemId id = search_pool[searches++];
    s.keywords.push_back(c.vectors[id].entries()[0].keyword);
    s.requests.push_back(core::SearchOp{{&s.keywords.back(), 1}, 4, {}});
    s.kinds.push_back(Kind::kSearch);
  };
  auto range = [&] {
    const double lo = rng.uniform(0.0, 0.8);
    s.requests.push_back(
        core::RangeSearchOp{setup.attribute, lo, lo + 0.1, {}});
    s.kinds.push_back(Kind::kRange);
  };

  // Every window holds the same number of requests of each kind, in a
  // seed-shuffled order, so windows cost alike and the run's totals do not
  // swing with how a random draw happened to fill them. serve_churn's last
  // slot is a depart in kMaxDeparts windows spread over the run, else a
  // fifth withdraw. The departing nodes are fixed too, evenly spaced ids:
  // what a depart costs depends on how much the node holds.
  const std::size_t depart_every =
      std::max<std::size_t>(1, windows / kMaxDeparts);
  std::vector<Kind> order;
  for (std::size_t w = 0; w < windows; ++w) {
    order = composition;
    shuffle(order);
    for (Kind kind : order) {
      if (kind == Kind::kDepart &&
          (w % depart_every != depart_every / 2 || departed.size() >= kMaxDeparts)) {
        kind = Kind::kWithdraw;
      }
      if (kind == Kind::kPublish && next_new >= n_items) kind = Kind::kWithdraw;
      switch (kind) {
        case Kind::kLocate:
          locate();
          break;
        case Kind::kRetrieve:
          retrieve();
          break;
        case Kind::kSearch:
          search();
          break;
        case Kind::kRange:
          range();
          break;
        case Kind::kPublish:
          s.requests.push_back(
              core::PublishOp{next_new, &c.vectors[next_new], {}});
          s.kinds.push_back(Kind::kPublish);
          joining.push_back(next_new++);
          break;
        case Kind::kWithdraw: {
          const std::size_t wi = rng.below(live.size());
          const vsm::ItemId id = live[wi];
          live[wi] = live.back();
          live.pop_back();
          s.requests.push_back(core::WithdrawOp{id, &c.vectors[id], {}});
          s.kinds.push_back(Kind::kWithdraw);
          break;
        }
        case Kind::kDepart: {
          const auto node = static_cast<overlay::NodeId>(
              1 + departed.size() * (nodes - 1) / kMaxDeparts);
          departed.push_back(node);
          s.requests.push_back(core::DepartOp{node});
          s.kinds.push_back(Kind::kDepart);
          break;
        }
      }
    }
    live.insert(live.end(), joining.begin(), joining.end());
    joining.clear();
  }
  return s;
}

/// What one completed request contributes to the run's tallies.
struct Outcome {
  bool failed = false;
  double messages = 0.0;
  double asked = 0.0;
  double delivered = 0.0;
};

/// Folds one result into `digest` and judges it. `placed` tracks which
/// items are stored (a locate or withdraw of a placed item must hit).
Outcome assess(const core::EpochEngine::OpResult& result,
               const core::Server::Request& request, Digest& digest,
               std::vector<std::uint8_t>& placed,
               std::vector<std::string>& problems) {
  Outcome o;
  digest.mix(result.index());
  std::visit(
      [&](const auto& r) {
        using R = std::decay_t<decltype(r)>;
        if constexpr (std::is_same_v<R, core::LocateResult>) {
          const auto& op = std::get<core::LocateOp>(request);
          digest.mix(r.found);
          digest.mix(r.node);
          digest.mix(r.via_replica);
          o.messages = static_cast<double>(r.total_messages());
          const bool live = placed[op.item] != 0;
          o.failed = r.partial || r.fault_blocked || (live && !r.found);
          if (live && !r.found && !r.fault_blocked) {
            problems.push_back("locate of live item " +
                               std::to_string(op.item) +
                               " missed without fault_blocked");
          }
        } else if constexpr (std::is_same_v<R, core::RetrieveResult>) {
          const auto& op = std::get<core::RetrieveOp>(request);
          for (const vsm::ScoredItem& item : r.items) {
            digest.mix(item.id);
            digest.mix_double(item.score);
          }
          o.messages = static_cast<double>(r.total_messages());
          o.asked = static_cast<double>(op.amount);
          o.delivered = static_cast<double>(std::min(r.items.size(), op.amount));
          o.failed = r.partial || r.fault_blocked;
        } else if constexpr (std::is_same_v<R, core::SearchResult>) {
          const auto& op = std::get<core::SearchOp>(request);
          for (const vsm::ItemId id : r.items) digest.mix(id);
          o.messages = static_cast<double>(r.total_messages());
          if (op.k > 0) {
            o.asked = static_cast<double>(op.k);
            o.delivered = static_cast<double>(std::min(r.items.size(), op.k));
          }
          o.failed = r.partial || r.fault_blocked;
        } else if constexpr (std::is_same_v<R, core::RangeSearchResult>) {
          for (const core::RangeMatch& m : r.matches) digest.mix(m.item);
          o.messages = static_cast<double>(r.total_messages());
          o.failed = r.partial || r.fault_blocked;
        } else if constexpr (std::is_same_v<R, core::PublishResult>) {
          const auto& op = std::get<core::PublishOp>(request);
          digest.mix(r.success);
          digest.mix(r.stored_at);
          digest.mix(r.pointer_missed);
          o.messages = static_cast<double>(r.total_messages());
          o.asked = 2.0;  // the item and its directory pointer
          o.delivered = (r.success ? 1.0 : 0.0) +
                        (r.success && !r.pointer_missed ? 1.0 : 0.0);
          o.failed = !r.success || r.partial || r.fault_blocked;
          placed[op.id] = r.success ? 1 : 0;
        } else if constexpr (std::is_same_v<R, core::WithdrawResult>) {
          const auto& op = std::get<core::WithdrawOp>(request);
          digest.mix(r.removed);
          digest.mix(r.replicas_removed);
          digest.mix(r.pointer_removed);
          o.messages = static_cast<double>(r.messages);
          o.failed = placed[op.item] != 0 && !r.removed;
          placed[op.item] = 0;
        } else if constexpr (std::is_same_v<R, core::DepartResult>) {
          digest.mix(r.items_transferred);
          digest.mix(r.pointers_transferred);
          o.messages = static_cast<double>(r.messages);
        }
        digest.mix(static_cast<std::uint64_t>(o.messages));
      },
      result);
  return o;
}

/// One serving pass over windows [0, windows) of `sched`.
struct PassResult {
  std::vector<std::uint64_t> window_digest;
  std::vector<double> window_s;   // pump wall time per window
  std::vector<double> cycle_s;    // first submit -> pump return, per window
  std::vector<double> deliver_s;  // first completion -> pump return
  std::vector<Clock::time_point> cycle_at;  // first submit, per window
  Samples latency_ms;             // per request, submit -> completion
  std::vector<std::size_t> latency_end;  // latency_ms.count() after each window
  double serve_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  double messages = 0.0;
  double kind_messages[kKinds] = {};
  double asked = 0.0;
  double delivered = 0.0;
  std::uint64_t rejected = 0;
  std::uint64_t deadline_missed = 0;
  std::vector<std::string> problems;

  [[nodiscard]] double pump_s() const {
    double sum = 0.0;
    for (const double w : window_s) sum += w;
    return sum;
  }
};

std::vector<std::uint8_t> initial_placed(const Corpus& corpus) {
  std::vector<std::uint8_t> placed(corpus.vectors.size(), 0);
  std::fill(placed.begin(),
            placed.begin() + static_cast<std::ptrdiff_t>(base_items(corpus)), 1);
  return placed;
}

/// Serves windows [0, windows) of `sched` closed-loop and appends to `out`.
/// With `spans`, records one span per window and one per request. With
/// `speed`, samples the host's speed between windows.
void serve_pass(core::Meteorograph& sys, const Corpus& corpus,
                const Schedule& sched, std::size_t workers, std::size_t windows,
                std::uint64_t seed, PassResult& out, std::vector<Span>* spans = nullptr,
                HostSpeed* speed = nullptr) {
  meteo::sim::FaultPlan plan(
      meteo::sim::FaultPlanConfig{.drop_rate = kDropRate}, seed ^ 0xfa);
  sys.set_fault_hook(&plan);
  std::vector<std::uint8_t> placed = initial_placed(corpus);
  {
    core::Server server(sys, {.queue_capacity = kWindow,
                              .ops_per_epoch = kWindow,
                              .workers = workers,
                              .seed = seed,
                              .deadline_seconds = kDeadlineSeconds});
    const std::size_t total = std::min(sched.requests.size(), windows * kWindow);
    std::vector<Clock::time_point> submitted(kWindow);
    std::vector<std::size_t> index_of(kWindow);
    const auto start = Clock::now();
    auto since_start = [&](Clock::time_point t) {
      return std::chrono::duration<double>(t - start).count();
    };
    for (std::size_t first = 0; first < total; first += kWindow) {
      const std::size_t last = std::min(total, first + kWindow);
      if (speed != nullptr) speed->sample_if_due();
      const auto cycle_start = Clock::now();
      std::size_t admitted = 0;
      core::Server::Ticket first_ticket = 0;
      for (std::size_t i = first; i < last; ++i) {
        ++out.attempted;
        const auto t = Clock::now();
        const auto ticket = server.submit(sched.requests[i]);
        if (!ticket) {
          ++out.failed;  // refused
          continue;
        }
        if (admitted == 0) first_ticket = *ticket;
        submitted[admitted] = t;
        index_of[admitted] = i;
        ++admitted;
      }
      Digest digest;
      const auto pump_start = Clock::now();
      Clock::time_point first_done{};
      const auto window_span = static_cast<std::uint32_t>(out.window_s.size() + 1);
      server.pump([&](const core::Server::Completion& done) {
        const auto now = Clock::now();
        if (first_done == Clock::time_point{}) first_done = now;
        const std::size_t slot = done.ticket - first_ticket;
        out.latency_ms.add(
            1e3 * std::chrono::duration<double>(now - submitted[slot]).count());
        digest.mix(done.deadline_exceeded);
        digest.mix_double(done.timeout_cost);
        const Outcome o = assess(done.result, sched.requests[index_of[slot]],
                                 digest, placed, out.problems);
        ++out.completed;
        out.messages += o.messages;
        out.kind_messages[static_cast<std::size_t>(sched.kinds[index_of[slot]])] +=
            o.messages;
        out.asked += o.asked;
        out.delivered += o.delivered;
        if (o.failed || done.deadline_exceeded) ++out.failed;
        if (spans != nullptr) {
          spans->push_back(
              Span{window_span, since_start(submitted[slot]), since_start(now)});
        }
      });
      const auto pump_end = Clock::now();
      out.window_s.push_back(
          std::chrono::duration<double>(pump_end - pump_start).count());
      out.cycle_s.push_back(
          std::chrono::duration<double>(pump_end - cycle_start).count());
      out.cycle_at.push_back(cycle_start);
      out.latency_end.push_back(out.latency_ms.count());
      out.deliver_s.push_back(
          std::chrono::duration<double>(pump_end - first_done).count());
      out.window_digest.push_back(digest.value());
      if (spans != nullptr) {
        spans->push_back(Span{0, since_start(pump_start), since_start(pump_end)});
      }
    }
    out.serve_s += seconds_since(start);
    out.rejected += server.rejected();
    out.deadline_missed += server.deadline_misses();
  }
  sys.set_fault_hook(nullptr);
}

/// Fixed work of a run: windows of the request sequence, from --seconds.
std::size_t windows_for(const ServeSpec& spec, double seconds) {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(std::llround(seconds * spec.windows_per_second)));
}

/// Per-layer time sums of a facade replay, over the replayed windows.
struct Attribution {
  double reads_s = 0.0;  // summed single-thread read time
  double publish_s = 0.0;
  double withdraw_s = 0.0;  // withdraw seals minus the directory gc
  double depart_s = 0.0;
  double gc_s = 0.0;  // the directory replica's tombstone + gc
};

/// Replays windows [0, windows) through the facade, every read, publish
/// and depart timed alone. A facade withdraw would rebuild the hot node's
/// directory eagerly, once per withdraw, where the serving path tombstones
/// and rebuilds once per window; so each window's withdraws are sealed
/// together through an EpochEngine instead, and the replica's tombstone +
/// gc of the same pointers is the directory's part of that seal.

Attribution facade_replay(const Setup& setup, const Schedule& sched,
                          std::size_t windows, std::uint64_t seed,
                          OpCoreStats& ops,
                          DirectoryReplica& replica,
                          std::vector<std::uint8_t>& placed) {
  core::Meteorograph& sys = *setup.system;
  const Corpus& corpus = *setup.corpus;
  meteo::sim::FaultPlan plan(
      meteo::sim::FaultPlanConfig{.drop_rate = kDropRate}, seed ^ 0xfa);
  sys.set_fault_hook(&plan);
  Attribution a;
  const std::size_t total = std::min(sched.requests.size(), windows * kWindow);
  std::vector<core::WithdrawOp> withdraws;
  for (std::size_t first = 0; first < total; first += kWindow) {
    withdraws.clear();
    const std::size_t last = std::min(total, first + kWindow);
    for (std::size_t i = first; i < last; ++i) {
      const Kind kind = sched.kinds[i];
      double msgs = 0.0;
      const double s = std::visit(
          [&](const auto& op) -> double {
            using Op = std::decay_t<decltype(op)>;
            if constexpr (std::is_same_v<Op, core::LocateOp>) {
              core::LocateResult r;
              const double t = timed([&] { r = sys.locate(op.item, *op.vector); });
              msgs = static_cast<double>(r.total_messages());
              return t;
            } else if constexpr (std::is_same_v<Op, core::RetrieveOp>) {
              core::RetrieveResult r;
              const double t =
                  timed([&] { r = sys.retrieve(*op.query, op.amount); });
              msgs = static_cast<double>(r.total_messages());
              ops.retrieve_asked += static_cast<double>(op.amount);
              ops.retrieve_delivered +=
                  static_cast<double>(std::min(r.items.size(), op.amount));
              return t;
            } else if constexpr (std::is_same_v<Op, core::SearchOp>) {
              core::SearchResult r;
              const double t =
                  timed([&] { r = sys.similarity_search(op.keywords, op.k); });
              msgs = static_cast<double>(r.total_messages());
              ops.search_lookups += static_cast<double>(r.items.size() + r.lookups_failed);
              ops.search_lookups_failed += static_cast<double>(r.lookups_failed);
              return t;
            } else if constexpr (std::is_same_v<Op, core::RangeSearchOp>) {
              core::RangeSearchResult r;
              const double t = timed(
                  [&] { r = sys.range_search(op.attribute, op.lo, op.hi); });
              msgs = static_cast<double>(r.total_messages());
              return t;
            } else if constexpr (std::is_same_v<Op, core::PublishOp>) {
              core::PublishResult r;
              const double t = timed([&] { r = sys.publish(op.id, *op.vector); });
              msgs = static_cast<double>(r.total_messages());
              placed[op.id] = r.success ? 1 : 0;
              replica.add(sys, corpus, op.id);
              return t;
            } else if constexpr (std::is_same_v<Op, core::WithdrawOp>) {
              withdraws.push_back(op);
              return 0.0;
            } else {
              core::DepartResult r;
              const double t = timed([&] { r = sys.depart_node(op.node); });
              msgs = static_cast<double>(r.messages);
              return t;
            }
          },
          sched.requests[i]);
      if (kind == Kind::kWithdraw) continue;
      const auto k = static_cast<std::size_t>(kind);
      ops.us[k].add(1e6 * s);
      ops.messages[k] += msgs;
      (kind == Kind::kPublish  ? a.publish_s
       : kind == Kind::kDepart ? a.depart_s
                               : a.reads_s) += s;
    }
    if (withdraws.empty()) continue;
    core::EpochEngine engine(
        sys, {.workers = kWorkers, .seed = seed, .defer_read = nullptr});
    std::vector<vsm::ItemId> items;
    for (const core::WithdrawOp& op : withdraws) {
      engine.submit(op);
      items.push_back(op.item);
      placed[op.item] = 0;
    }
    core::EpochEngine::SealedEpoch sealed;
    const double seal_s = timed([&] { sealed = engine.seal(); });
    const double gc_s = replica.remove_and_gc(items, first / kWindow + 1);
    a.gc_s += gc_s;
    a.withdraw_s += std::max(0.0, seal_s - gc_s);
    const auto k = static_cast<std::size_t>(Kind::kWithdraw);
    for (const auto& result : sealed.results) {
      ops.us[k].add(1e6 * std::max(0.0, seal_s - gc_s) /
                    static_cast<double>(withdraws.size()));
      ops.messages[k] +=
          static_cast<double>(std::get<core::WithdrawResult>(result).messages);
    }
  }
  sys.set_fault_hook(nullptr);
  return a;
}

void emit_end_to_end(const PassResult& pass, const HostSpeed& speed,
                     RunResult& out) {
  MetricSink& m = out.end_to_end;
  // Every window's cycle and latencies are scaled to the reference host
  // by the speed sampled around it. Measured time is the sum of the scaled
  // window cycles (first submit to end of pump); the notes keep the raw
  // wall-clock figures.
  Samples cycle;
  Samples raw_cycle;
  Samples latency;
  std::size_t begin = 0;
  for (std::size_t w = 0; w < pass.cycle_s.size(); ++w) {
    const double f = speed.factor_at(pass.cycle_at[w]);
    cycle.add(pass.cycle_s[w] * f);
    raw_cycle.add(pass.cycle_s[w]);
    for (std::size_t i = begin; i < pass.latency_end[w]; ++i) {
      latency.add(pass.latency_ms.values()[i] * f);
    }
    begin = pass.latency_end[w];
  }
  m.set("throughput_ops_s", static_cast<double>(pass.completed) / cycle.sum(),
        "ops/s");
  const std::size_t chunks = latency_chunks(pass.window_s.size());
  m.set("latency_p50_ms", latency.chunked_quantile(0.5, chunks), "ms");
  m.set("latency_p90_ms", latency.chunked_quantile(0.9, chunks), "ms");
  m.set("success_share",
        static_cast<double>(pass.attempted - pass.failed) /
            static_cast<double>(pass.attempted),
        "ratio");
  m.set("msgs_per_op", pass.messages / static_cast<double>(pass.completed),
        "msgs");
  m.set("result_fill_share", pass.asked > 0.0 ? pass.delivered / pass.asked : 0.0,
        "ratio");
  m.set("peak_rss_mb", peak_rss_mb(), "MiB");

  Samples windows;
  for (const double s : pass.window_s) windows.add(1e3 * s);
  out.notes["latency_samples_requests"] = static_cast<double>(pass.latency_ms.count());
  out.notes["latency_samples_windows"] = static_cast<double>(windows.count());
  out.notes["latency_p90_windows_beyond"] = static_cast<double>(windows.beyond(0.9));
  out.notes["measured_s"] = pass.serve_s;
  out.notes["throughput_wall_ops_s"] =
      static_cast<double>(pass.completed) / pass.serve_s;
  out.notes["throughput_raw_ops_s"] =
      static_cast<double>(pass.completed) / raw_cycle.sum();
  out.notes["latency_p50_raw_ms"] = pass.latency_ms.chunked_quantile(0.5, chunks);
  out.notes["latency_p90_raw_ms"] = pass.latency_ms.chunked_quantile(0.9, chunks);
  for (std::size_t k = 0; k < kKinds; ++k) {
    out.notes[std::string("msgs_per_op.") + kind_name(static_cast<Kind>(k))] =
        pass.kind_messages[k] / static_cast<double>(pass.completed);
  }
  out.notes["host_speed_factor"] = speed.median_factor();
  out.notes["host_speed_samples"] = static_cast<double>(speed.samples());
}

/// Compares replayed window digests with the measured pass's.
void check_digests(const std::vector<std::uint64_t>& reference,
                   const std::vector<std::uint64_t>& replay,
                   const std::string& what, RunResult& out) {
  for (std::size_t i = 0; i < replay.size() && i < reference.size(); ++i) {
    if (replay[i] != reference[i]) {
      out.fail("window " + std::to_string(i) + " digest differs " + what);
      return;
    }
  }
}

}  // namespace

RunResult run_serve_workload(const RunParams& params) {
  const ServeSpec spec = spec_of(params.workload);
  RunResult out;
  Samples setup_s;
  Samples setup_raw_s;
  HostSpeed speed;
  const std::size_t windows = windows_for(spec, params.seconds);
  auto new_setup = [&] {
    Setup s;
    setup_s.add(speed.time_scaled([&] { s = run_setup(params, true); }));
    setup_raw_s.add(s.total_s());
    out.corpus_fingerprint = s.corpus->fingerprint;
    return s;
  };

  if (!params.trace) {
    // 1. The measured pass at the configured worker count.
    PassResult pass;
    {
      Setup s = new_setup();
      const Schedule sched = make_schedule(params.workload, s, params.seed, windows);
      serve_pass(*s.system, *s.corpus, sched, kWorkers, sched.windows,
                 params.seed, pass, nullptr, &speed);
    }
    out.attempted = pass.attempted;
    out.failed = pass.failed;
    for (std::string& p : pass.problems) out.fail(std::move(p));
    emit_end_to_end(pass, speed, out);
    Digest all;
    for (const std::uint64_t d : pass.window_digest) all.mix(d);
    out.digest = hex64(all.value());

    // 2. Replays of the first windows on fresh set-ups: one worker (the
    //    sequential oracle), then the configured count again (repetition).
    const std::size_t check = std::clamp<std::size_t>(
        pass.window_digest.size() / 8, 2, 256);
    for (std::size_t r = 1; r < kSetups; ++r) {
      Setup s = new_setup();
      const Schedule sched = make_schedule(params.workload, s, params.seed, windows);
      const std::size_t w = r % 2 == 1 ? 1 : kWorkers;
      PassResult replay;
      serve_pass(*s.system, *s.corpus, sched, w,
                 std::min(check, sched.windows), params.seed, replay);
      check_digests(pass.window_digest, replay.window_digest,
                    "at " + std::to_string(w) + " worker(s)", out);
    }
    out.end_to_end.set("setup_s", setup_s.median(), "s");
    out.notes["setup_raw_s"] = setup_raw_s.median();
    out.notes["digest_checked_windows"] = static_cast<double>(check);
    return out;
  }

  // Traced run. The facade replay and layer probes go first (they also warm
  // the process), then an untraced and a traced pass over the same first
  // windows, each on a fresh set-up: their difference is the tracing
  // overhead, and the untraced pass is the base the attribution divides.
  MetricSink& m = out.per_layer;
  const std::size_t traced = std::min(windows, spec.traced_windows);
  OpCoreStats ops;
  DirectoryReplica replica;
  Attribution a;
  double seal_us = 0.0;
  {
    Setup s = new_setup();
    const Corpus& corpus = *s.corpus;
    m.set("workload.synth_s", s.synth_s, "s");
    m.set("meteorograph.build_s", s.build_s, "s");
    m.set("meteorograph.preload_us_per_item",
          1e6 * s.preload_s / static_cast<double>(base_items(corpus)), "us");
    const Schedule sched = make_schedule(params.workload, s, params.seed, windows);
    {
      // Skew census: the preloaded pointers.
      std::vector<vsm::ItemId> census(base_items(corpus));
      for (vsm::ItemId id = 0; id < census.size(); ++id) census[id] = id;
      replica.build(*s.system, corpus, census, census.size());
    }
    std::vector<std::uint8_t> placed = initial_placed(corpus);
    a = facade_replay(s, sched, traced, params.seed, ops, replica, placed);
    ops.emit(m);
    replica.emit(corpus, m);
    probe_overlay(*s.system, corpus, params.seed, m);
    probe_vsm(*s.system, corpus, params.seed, m);
    probe_naming(*s.system, corpus, params.seed, m);
    std::vector<vsm::ItemId> live;
    for (vsm::ItemId id = 0; id < placed.size(); ++id) {
      if (placed[id] != 0) live.push_back(id);
    }
    seal_us = probe_seal_fixed(*s.system, corpus, live, kWorkers, m);
    emit_retrieve_model(*s.system, m);
  }
  PassResult plain;
  {
    Setup s = new_setup();
    const Schedule sched = make_schedule(params.workload, s, params.seed, windows);
    serve_pass(*s.system, *s.corpus, sched, kWorkers, traced,
               params.seed, plain);
    out.attempted = plain.attempted;
    out.failed = plain.failed;
    for (std::string& p : plain.problems) out.fail(std::move(p));
    Samples pump_ms;
    for (const double w : plain.window_s) pump_ms.add(1e3 * w);
    m.set("server.pump_ms_p50", pump_ms.median(), "ms");
    m.set("server.pump_ms_p90", pump_ms.quantile(0.9), "ms");
    m.set("server.pump_busy_s", plain.pump_s(), "s");
    m.set("server.rejected", static_cast<double>(plain.rejected), "count");
    m.set("server.deadline_missed", static_cast<double>(plain.deadline_missed),
          "count");
    emit_fault_rates(*s.system, static_cast<double>(plain.completed), m);
  }
  {
    Setup s = new_setup();
    const Schedule sched = make_schedule(params.workload, s, params.seed, windows);
    out.spans.reserve(traced * (kWindow + 1));
    PassResult pass;
    serve_pass(*s.system, *s.corpus, sched, kWorkers, traced,
               params.seed, pass, &out.spans);
    m.set("trace.overhead_share", pass.pump_s() / plain.pump_s() - 1.0, "ratio");
  }

  // Window attribution over the untraced pass; reads split across the
  // workers.
  double delivery_s = 0.0;
  for (const double d : plain.deliver_s) delivery_s += d;
  const double parts[] = {
      a.gc_s,
      a.reads_s / static_cast<double>(kWorkers),
      a.publish_s,
      a.withdraw_s,
      a.depart_s,
      static_cast<double>(plain.window_s.size()) * seal_us / 1e6,
      delivery_s,
  };
  const char* names[] = {"directory_gc", "reads",      "publish",         "withdraw",
                         "depart",       "seal_fixed", "server_delivery"};
  double attributed = 0.0;
  for (std::size_t i = 0; i < std::size(parts); ++i) {
    m.set(std::string("window.") + names[i] + "_share", parts[i] / plain.pump_s(),
          "ratio");
    attributed += parts[i];
  }
  m.set("trace.unattributed_share", 1.0 - attributed / plain.pump_s(), "ratio");
  for (const char* b : {"batch.publish_us_per_op", "batch.locate_us_per_op",
                        "batch.search_us_per_op"}) {
    m.set(b, 0.0, "us");  // BatchEngine is not on this workload's path
  }
  out.notes["traced_windows"] = static_cast<double>(plain.window_s.size());
  return out;
}

}  // namespace perfbench
