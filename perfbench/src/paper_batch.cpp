/// paper_batch: the Fig. 7/10 path through core::BatchEngine. The whole
/// corpus is batch-published in fixed-size batches, then batches of
/// locates of published items run, then batches of discover-all (k = 0)
/// and k = 16 searches over the popular keywords. A batch's latency runs
/// from hand-off to return and is shared by every op in it.

#include <cmath>
#include <string>

#include "corpus.hpp"
#include "host_speed.hpp"
#include "layers.hpp"
#include "meteorograph/batch.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace core = meteo::core;
namespace vsm = meteo::vsm;

constexpr std::size_t kPublishBatch = 500;
constexpr std::size_t kLocateBatch = 2000;
/// Popular keywords searched per batch; each goes out as k = 0 and k = 16.
constexpr std::size_t kSearchKeywords = 8;
/// Locate and search batches per second of --seconds: the fixed work,
/// sized so that publishing, locating and searching each take about a
/// third of a run on a 4-vCPU host.
constexpr double kLocateBatchesPerSecond = 70.0;
constexpr double kSearchBatchesPerSecond = 30.0;
/// Distinct locate batches; the run cycles through them (reads leave the
/// system unchanged, so a repeated batch repeats its results).
constexpr std::size_t kDistinctLocateBatches = 64;
/// Share of the read batches the traced run's timed passes replay.
constexpr std::size_t kTracedReadDivisor = 4;

/// The fixed, seed-derived ops of one run.
struct Plan {
  std::vector<std::vector<core::PublishOp>> publish;
  std::vector<std::vector<core::LocateOp>> locate;  // distinct batches
  std::size_t locate_batches = 0;
  std::vector<std::vector<vsm::KeywordId>> keywords;  // one-keyword queries
  std::vector<core::SearchOp> search;                 // one search batch
  std::size_t search_batches = 0;
};

Plan make_plan(const Corpus& c, std::size_t nodes, std::uint64_t seed,
               double seconds) {
  Plan p;
  for (std::size_t first = 0; first < c.vectors.size(); first += kPublishBatch) {
    auto& batch = p.publish.emplace_back();
    const std::size_t last = std::min(c.vectors.size(), first + kPublishBatch);
    for (vsm::ItemId id = first; id < last; ++id) {
      batch.push_back(core::PublishOp{id, &c.vectors[id], {}});
    }
  }
  meteo::Rng rng(meteo::splitmix64(seed ^ 0x10ca7eULL));
  p.locate_batches = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds * kLocateBatchesPerSecond)));
  for (std::size_t b = 0; b < std::min(p.locate_batches, kDistinctLocateBatches);
       ++b) {
    auto& batch = p.locate.emplace_back();
    for (std::size_t i = 0; i < kLocateBatch; ++i) {
      const vsm::ItemId id = rng.below(c.vectors.size());
      batch.push_back(core::LocateOp{id, &c.vectors[id], {}});
    }
  }
  // Fig. 10's candidates: the most popular keywords matching at most N
  // items.
  const auto& df = c.trace.document_frequency();
  for (const vsm::KeywordId k : c.by_popularity) {
    if (df[k] > nodes) continue;
    p.keywords.push_back({k});
    if (p.keywords.size() == kSearchKeywords) break;
  }
  for (const auto& q : p.keywords) {
    p.search.push_back(core::SearchOp{q, 0, {}});
    p.search.push_back(core::SearchOp{q, 16, {}});
  }
  p.search_batches = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds * kSearchBatchesPerSecond)));
  return p;
}

/// Tallies of one pass, per phase and overall.
struct BatchPass {
  Samples latency_ms;  // per op (its batch's duration)
  double scaled_s = 0.0;  // batch time summed, scaled to the reference host
  double publish_s = 0.0;
  double locate_s = 0.0;
  double search_s = 0.0;
  std::uint64_t publish_ops = 0;
  std::uint64_t locate_ops = 0;
  std::uint64_t search_ops = 0;
  std::uint64_t failed = 0;
  double messages = 0.0;
  double asked = 0.0;
  double delivered = 0.0;
  std::vector<std::uint64_t> publish_digest;  // per batch
  std::vector<std::uint64_t> read_digest;     // per read batch
  std::vector<std::string> problems;
  std::vector<Span>* spans = nullptr;  // traced pass only
  /// Samples the host's speed between batches; latency_ms and scaled_s
  /// are then scaled to the reference host (host_speed.hpp).
  HostSpeed* speed = nullptr;
  Clock::time_point start = Clock::now();

  [[nodiscard]] std::uint64_t ops() const {
    return publish_ops + locate_ops + search_ops;
  }
  [[nodiscard]] double seconds() const {
    return publish_s + locate_s + search_s;
  }
  /// Scale of a batch that just ended: the latest samples' factor.
  [[nodiscard]] double factor() const {
    return speed != nullptr ? speed->factor_at(Clock::now()) : 1.0;
  }
};

template <typename Fn>
double time_batch(BatchPass& pass, std::size_t ops, Fn&& fn) {
  if (pass.speed != nullptr) pass.speed->sample_if_due();
  const auto begin = Clock::now();
  fn();
  const auto end = Clock::now();
  const double s = std::chrono::duration<double>(end - begin).count();
  const double scaled = s * pass.factor();
  pass.scaled_s += scaled;
  for (std::size_t i = 0; i < ops; ++i) pass.latency_ms.add(1e3 * scaled);
  if (pass.spans != nullptr) {
    pass.spans->push_back(
        Span{0, std::chrono::duration<double>(begin - pass.start).count(),
             std::chrono::duration<double>(end - pass.start).count()});
  }
  return s;
}

void publish_phase(core::BatchEngine& engine, const Plan& plan,
                   std::size_t batches, BatchPass& pass) {
  for (std::size_t b = 0; b < std::min(batches, plan.publish.size()); ++b) {
    std::vector<core::PublishResult> results;
    const double t = time_batch(pass, plan.publish[b].size(),
                                [&] { results = engine.publish(plan.publish[b]); });
    pass.publish_s += t;
    Digest d;
    for (const core::PublishResult& r : results) {
      d.mix(r.success);
      d.mix(r.stored_at);
      d.mix(r.total_messages());
      pass.messages += static_cast<double>(r.total_messages());
      pass.asked += 2.0;  // the item and its directory pointer
      pass.delivered += (r.success ? 1.0 : 0.0) +
                        (r.success && !r.pointer_missed ? 1.0 : 0.0);
      if (!r.success || r.partial || r.fault_blocked) ++pass.failed;
    }
    pass.publish_ops += results.size();
    pass.publish_digest.push_back(d.value());
  }
}

/// Runs `locate_batches` locate batches and `search_batches` search
/// batches over a fully published system.
void read_phase(core::BatchEngine& engine, const Plan& plan,
                std::size_t locate_batches, std::size_t search_batches,
                BatchPass& pass) {
  for (std::size_t b = 0; b < locate_batches; ++b) {
    const std::vector<core::LocateOp>& batch = plan.locate[b % plan.locate.size()];
    std::vector<core::LocateResult> results;
    const double t =
        time_batch(pass, batch.size(), [&] { results = engine.locate(batch); });
    pass.locate_s += t;
    Digest d;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::LocateResult& r = results[i];
      d.mix(r.found);
      d.mix(r.node);
      pass.messages += static_cast<double>(r.total_messages());
      if (!r.found || r.partial || r.fault_blocked) ++pass.failed;
      if (!r.found && !r.fault_blocked) {
        pass.problems.push_back("locate of published item " +
                                std::to_string(batch[i].item) +
                                " missed");
      }
    }
    pass.locate_ops += results.size();
    pass.read_digest.push_back(d.value());
  }
  for (std::size_t b = 0; b < search_batches; ++b) {
    std::vector<core::SearchResult> results;
    const double t = time_batch(pass, plan.search.size(), [&] {
      results = engine.similarity_search(plan.search);
    });
    pass.search_s += t;
    Digest d;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const core::SearchResult& r = results[i];
      for (const vsm::ItemId id : r.items) d.mix(id);
      pass.messages += static_cast<double>(r.total_messages());
      if (plan.search[i].k > 0) {
        pass.asked += static_cast<double>(plan.search[i].k);
        pass.delivered +=
            static_cast<double>(std::min(r.items.size(), plan.search[i].k));
      }
      if (r.partial || r.fault_blocked) ++pass.failed;
    }
    pass.search_ops += results.size();
    pass.read_digest.push_back(d.value());
  }
}

}  // namespace

RunResult run_paper_batch(const RunParams& params) {
  RunResult out;
  Samples setup_s;
  Samples setup_raw_s;
  HostSpeed speed;
  auto new_setup = [&] {
    Setup s;
    setup_s.add(speed.time_scaled([&] { s = run_setup(params, false); }));
    setup_raw_s.add(s.total_s());
    out.corpus_fingerprint = s.corpus->fingerprint;
    return s;
  };
  const core::BatchOptions options{.workers = kWorkers,
                                   .seed = params.seed};

  if (!params.trace) {
    BatchPass pass;
    pass.speed = &speed;
    {
      Setup s = new_setup();
      const Plan plan = make_plan(*s.corpus, params.corpus.nodes, params.seed,
                                  params.seconds);
      core::BatchEngine engine(*s.system, options);
      publish_phase(engine, plan, plan.publish.size(), pass);
      read_phase(engine, plan, plan.locate_batches, plan.search_batches, pass);
      // Reads leave the system unchanged: the first locate batch and one
      // search batch replay on a sequential engine over the same system.
      core::BatchEngine oracle(*s.system, {.workers = 1, .seed = params.seed});
      BatchPass replay;
      read_phase(oracle, plan, 1, 1, replay);
      if (replay.read_digest[0] != pass.read_digest[0] ||
          replay.read_digest[1] != pass.read_digest[plan.locate_batches]) {
        out.fail("read batch digest differs at 1 worker");
      }
    }
    // Publish batches are checked on fresh set-ups: the first ones at one
    // worker, then at the configured count again (repetition).
    const std::size_t check = std::max<std::size_t>(2, pass.publish_digest.size() / 8);
    const std::size_t replay_workers[] = {1, kWorkers};
    for (std::size_t r = 1; r < kSetups; ++r) {
      Setup s = new_setup();
      const Plan plan = make_plan(*s.corpus, params.corpus.nodes, params.seed,
                                  params.seconds);
      const std::size_t w = replay_workers[(r - 1) % 2];
      core::BatchEngine engine(*s.system, {.workers = w, .seed = params.seed});
      BatchPass replay;
      publish_phase(engine, plan, check, replay);
      for (std::size_t i = 0; i < replay.publish_digest.size(); ++i) {
        if (replay.publish_digest[i] != pass.publish_digest[i]) {
          out.fail("publish batch " + std::to_string(i) + " digest differs at " +
                   std::to_string(w) + " worker(s)");
          break;
        }
      }
    }
    for (std::string& p : pass.problems) out.fail(std::move(p));
    out.attempted = pass.ops();
    out.failed = pass.failed;
    Digest all;
    for (const std::uint64_t d : pass.publish_digest) all.mix(d);
    for (const std::uint64_t d : pass.read_digest) all.mix(d);
    out.digest = hex64(all.value());

    MetricSink& m = out.end_to_end;
    m.set("setup_s", setup_s.median(), "s");
    out.notes["setup_raw_s"] = setup_raw_s.median();
    m.set("throughput_ops_s",
          static_cast<double>(pass.ops()) / pass.scaled_s, "ops/s");
    const std::size_t chunks = latency_chunks(
        pass.publish_digest.size() + pass.read_digest.size());
    m.set("latency_p50_ms", pass.latency_ms.chunked_quantile(0.5, chunks), "ms");
    m.set("latency_p90_ms", pass.latency_ms.chunked_quantile(0.9, chunks), "ms");
    m.set("success_share",
          static_cast<double>(pass.ops() - pass.failed) /
              static_cast<double>(pass.ops()),
          "ratio");
    m.set("msgs_per_op", pass.messages / static_cast<double>(pass.ops()), "msgs");
    m.set("result_fill_share", pass.delivered / pass.asked, "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.notes["latency_samples_requests"] = static_cast<double>(pass.latency_ms.count());
    out.notes["latency_samples_batches"] = static_cast<double>(
        pass.publish_digest.size() + pass.read_digest.size());
    out.notes["measured_s"] = pass.seconds();
    out.notes["publish_s"] = pass.publish_s;
    out.notes["locate_s"] = pass.locate_s;
    out.notes["search_s"] = pass.search_s;
    out.notes["throughput_wall_ops_s"] =
        static_cast<double>(pass.ops()) / pass.seconds();
    out.notes["digest_checked_publish_batches"] = static_cast<double>(check);
    out.notes["host_speed_factor"] = speed.median_factor();
    out.notes["host_speed_samples"] = static_cast<double>(speed.samples());
    return out;
  }

  // Traced run: an untraced and a traced batch pass (the difference is the
  // tracing overhead), then a facade replay and the layer probes.
  MetricSink& m = out.per_layer;
  double plain_s = 0.0;
  BatchPass plain;
  {
    Setup s = new_setup();
    m.set("workload.synth_s", s.synth_s, "s");
    m.set("meteorograph.build_s", s.build_s, "s");
    m.set("meteorograph.preload_us_per_item", 0.0, "us");
    const Plan plan = make_plan(*s.corpus, params.corpus.nodes, params.seed,
                                params.seconds);
    core::BatchEngine engine(*s.system, options);
    publish_phase(engine, plan, plan.publish.size(), plain);
    read_phase(engine, plan, plan.locate_batches / kTracedReadDivisor,
               plan.search_batches / kTracedReadDivisor, plain);
    plain_s = plain.seconds();
    out.attempted = plain.ops();
    out.failed = plain.failed;
    for (std::string& p : plain.problems) out.fail(std::move(p));
    m.set("batch.publish_us_per_op",
          1e6 * plain.publish_s / static_cast<double>(plain.publish_ops), "us");
    m.set("batch.locate_us_per_op",
          1e6 * plain.locate_s / static_cast<double>(plain.locate_ops), "us");
    m.set("batch.search_us_per_op",
          1e6 * plain.search_s / static_cast<double>(plain.search_ops), "us");
  }
  {
    // The traced pass records one span per batch; a batch is the finest
    // unit visible from outside the engine.
    Setup s = new_setup();
    const Plan plan = make_plan(*s.corpus, params.corpus.nodes, params.seed,
                                params.seconds);
    core::BatchEngine engine(*s.system, options);
    BatchPass traced;
    traced.spans = &out.spans;
    publish_phase(engine, plan, plan.publish.size(), traced);
    read_phase(engine, plan, plan.locate_batches / kTracedReadDivisor,
               plan.search_batches / kTracedReadDivisor, traced);
    m.set("trace.overhead_share", traced.seconds() / plain_s - 1.0, "ratio");
  }

  Setup s = new_setup();
  const Corpus& corpus = *s.corpus;
  core::Meteorograph& sys = *s.system;
  const Plan plan = make_plan(corpus, params.corpus.nodes, params.seed,
                              params.seconds);
  DirectoryReplica replica;
  {
    std::vector<vsm::ItemId> census(corpus.vectors.size());
    for (vsm::ItemId id = 0; id < census.size(); ++id) census[id] = id;
    replica.build(sys, corpus, census, 0);
  }
  OpCoreStats ops;
  double publish_s = 0.0;
  for (const auto& batch : plan.publish) {
    for (const core::PublishOp& op : batch) {
      core::PublishResult r;
      const double t = timed([&] { r = sys.publish(op.id, *op.vector); });
      publish_s += t;
      ops.us[static_cast<std::size_t>(Kind::kPublish)].add(1e6 * t);
      ops.messages[static_cast<std::size_t>(Kind::kPublish)] +=
          static_cast<double>(r.total_messages());
      replica.add(sys, corpus, op.id);
    }
  }
  double locate_s = 0.0;
  for (const core::LocateOp& op : plan.locate.front()) {
    core::LocateResult r;
    const double t = timed([&] { r = sys.locate(op.item, *op.vector); });
    locate_s += t;
    ops.us[static_cast<std::size_t>(Kind::kLocate)].add(1e6 * t);
    ops.messages[static_cast<std::size_t>(Kind::kLocate)] +=
        static_cast<double>(r.total_messages());
  }
  double search_s = 0.0;
  for (const core::SearchOp& op : plan.search) {
    core::SearchResult r;
    const double t = timed([&] { r = sys.similarity_search(op.keywords, op.k); });
    search_s += t;
    ops.us[static_cast<std::size_t>(Kind::kSearch)].add(1e6 * t);
    ops.messages[static_cast<std::size_t>(Kind::kSearch)] +=
        static_cast<double>(r.total_messages());
    ops.search_lookups += static_cast<double>(r.items.size() + r.lookups_failed);
    ops.search_lookups_failed += static_cast<double>(r.lookups_failed);
  }
  ops.emit(m);
  replica.emit(corpus, m);
  probe_overlay(sys, corpus, params.seed, m);
  probe_vsm(sys, corpus, params.seed, m);
  probe_naming(sys, corpus, params.seed, m);
  std::vector<vsm::ItemId> live(corpus.vectors.size());
  for (vsm::ItemId id = 0; id < live.size(); ++id) live[id] = id;
  probe_seal_fixed(sys, corpus, live, kWorkers, m);
  emit_fault_rates(sys, static_cast<double>(plain.ops()), m);

  // Attribution of the batch pass: per-op facade costs scaled to the pass's
  // op counts, reads split across the workers (publishes plan in parallel
  // but commit in order, so they are charged in full).
  const double locate_per_op =
      locate_s / static_cast<double>(plan.locate.front().size());
  const double search_per_op = search_s / static_cast<double>(plan.search.size());
  const double parts[] = {
      publish_s,
      (locate_per_op * static_cast<double>(plain.locate_ops) +
       search_per_op * static_cast<double>(plain.search_ops)) /
          static_cast<double>(kWorkers),
  };
  m.set("window.publish_share", parts[0] / plain_s, "ratio");
  m.set("window.reads_share", parts[1] / plain_s, "ratio");
  for (const char* name : {"window.directory_gc_share", "window.withdraw_share",
                           "window.depart_share", "window.seal_fixed_share",
                           "window.server_delivery_share"}) {
    m.set(name, 0.0, "ratio");
  }
  m.set("trace.unattributed_share", 1.0 - (parts[0] + parts[1]) / plain_s,
        "ratio");
  for (const char* name : {"server.pump_ms_p50", "server.pump_ms_p90"}) {
    m.set(name, 0.0, "ms");
  }
  m.set("server.pump_busy_s", 0.0, "s");
  m.set("server.rejected", 0.0, "count");
  m.set("server.deadline_missed", 0.0, "count");
  emit_retrieve_model(sys, m);
  return out;
}

}  // namespace perfbench
