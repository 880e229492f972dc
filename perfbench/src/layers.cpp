#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "meteorograph/epoch.hpp"
#include "obs/names.hpp"

namespace perfbench {

namespace core = meteo::core;
namespace vsm = meteo::vsm;
namespace overlay = meteo::overlay;

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kLocate:
      return "locate";
    case Kind::kRetrieve:
      return "retrieve";
    case Kind::kSearch:
      return "search";
    case Kind::kRange:
      return "range";
    case Kind::kPublish:
      return "publish";
    case Kind::kWithdraw:
      return "withdraw";
    case Kind::kDepart:
      return "depart";
  }
  return "?";
}

void OpCoreStats::emit(MetricSink& out) const {
  for (std::size_t k = 0; k < kKinds; ++k) {
    const std::string p = std::string("op.") + kind_name(static_cast<Kind>(k));
    out.set(p + ".us_p50", us[k].median(), "us");
    out.set(p + ".us_p90", us[k].quantile(0.9), "us");
    out.set(p + ".busy_s", us[k].sum() / 1e6, "s");
    out.set(p + ".msgs_mean",
            us[k].empty() ? 0.0
                          : messages[k] / static_cast<double>(us[k].count()),
            "msgs");
  }
  out.set("op.retrieve.fill_share",
          retrieve_asked > 0.0 ? retrieve_delivered / retrieve_asked : 0.0,
          "ratio");
  out.set("op.search.lookups_failed_share",
          search_lookups > 0.0 ? search_lookups_failed / search_lookups : 0.0,
          "ratio");
}

// --- directory replica ------------------------------------------------------

namespace {

core::DirectoryPointer pointer_of(const core::Meteorograph& sys,
                                  const Corpus& corpus, vsm::ItemId id) {
  const vsm::SparseVector& v = corpus.vectors[id];
  core::DirectoryPointer p;
  p.item = id;
  p.item_key = sys.balanced_key(v);
  p.keywords.reserve(v.nnz());
  for (const vsm::Entry& e : v.entries()) p.keywords.push_back(e.keyword);
  return p;
}

overlay::NodeId pointer_home(const core::Meteorograph& sys,
                             const Corpus& corpus, vsm::ItemId id) {
  return sys.network().closest_alive(sys.raw_key(corpus.vectors[id]));
}

}  // namespace

void DirectoryReplica::build(const core::Meteorograph& sys,
                             const Corpus& corpus,
                             std::span<const vsm::ItemId> census,
                             std::size_t preloaded) {
  held_.assign(corpus.vectors.size(), 0);
  std::vector<std::size_t> per_node(sys.network().size(), 0);
  std::vector<overlay::NodeId> homes;
  homes.reserve(census.size());
  for (const vsm::ItemId id : census) {
    homes.push_back(pointer_home(sys, corpus, id));
    ++per_node[homes.back()];
  }
  census_pointers = census.size();
  nodes_with_pointers = static_cast<std::size_t>(
      std::count_if(per_node.begin(), per_node.end(),
                    [](std::size_t n) { return n > 0; }));
  const auto top = std::max_element(per_node.begin(), per_node.end());
  top_ = static_cast<overlay::NodeId>(top - per_node.begin());
  top_node_pointers = *top;
  for (std::size_t i = 0; i < std::min(preloaded, census.size()); ++i) {
    if (homes[i] == top_) add_pointer(sys, corpus, census[i]);
  }
}

void DirectoryReplica::add(const core::Meteorograph& sys, const Corpus& corpus,
                           vsm::ItemId id) {
  if (pointer_home(sys, corpus, id) == top_) add_pointer(sys, corpus, id);
}

void DirectoryReplica::add_pointer(const core::Meteorograph& sys,
                                   const Corpus& corpus, vsm::ItemId id) {
  core::DirectoryPointer p = pointer_of(sys, corpus, id);
  add_us.add(1e6 * timed([&] { store_.add(std::move(p)); }));
  held_[id] = 1;
}

bool DirectoryReplica::holds(vsm::ItemId item) const {
  return item < held_.size() && held_[item] != 0;
}

double DirectoryReplica::remove_and_gc(std::span<const vsm::ItemId> items,
                                       vsm::Epoch epoch) {
  const double s = timed([&] {
    store_.retain_versions(true);
    store_.set_write_epoch(epoch);
    for (const vsm::ItemId id : items) {
      if (holds(id)) store_.remove(id);
    }
    store_.gc();
    store_.retain_versions(false);
    store_.set_write_epoch(0);
  });
  for (const vsm::ItemId id : items) {
    if (holds(id)) held_[id] = 0;
  }
  remove_gc_ms.add(1e3 * s);
  return s;
}

void DirectoryReplica::emit(const Corpus& corpus, MetricSink& out) const {
  out.set("directory.top_node_pointer_share",
          census_pointers == 0 ? 0.0
                               : static_cast<double>(top_node_pointers) /
                                     static_cast<double>(census_pointers),
          "ratio");
  out.set("directory.nodes_with_pointers",
          static_cast<double>(nodes_with_pointers), "count");
  out.set("directory.add_us", add_us.median(), "us");
  out.set("directory.remove_gc_ms", remove_gc_ms.median(), "ms");

  // Candidate probes for the popular keywords, timed in blocks (one probe
  // is a hash lookup, too short to time alone).
  const std::size_t nkw = std::min<std::size_t>(64, corpus.by_popularity.size());
  Samples per_probe_us;
  std::size_t sink = 0;
  for (int block = 0; block < 21; ++block) {
    const double s = timed([&] {
      for (int rep = 0; rep < 16; ++rep) {
        for (std::size_t i = 0; i < nkw; ++i) {
          sink += store_.candidates(corpus.by_popularity[i]).size();
        }
      }
    });
    per_probe_us.add(1e6 * s / static_cast<double>(16 * std::max<std::size_t>(nkw, 1)));
  }
  out.set("directory.candidates_us", per_probe_us.median(), "us");
  keep(sink);
}

// --- overlay / vsm / naming / epoch probes ------------------------------------

namespace {

double log_b_n(const overlay::Overlay& net) {
  return std::log(static_cast<double>(net.alive_count())) /
         std::log(static_cast<double>(net.config().routing_base));
}

}  // namespace

void probe_overlay(const core::Meteorograph& sys, const Corpus& corpus,
                   std::uint64_t seed, MetricSink& out) {
  meteo::Rng rng(meteo::splitmix64(seed ^ 0x0e7a7ULL));
  const overlay::Overlay& net = sys.network();
  Samples us;
  double hops = 0.0;
  constexpr std::size_t kRoutes = 4000;
  for (std::size_t i = 0; i < kRoutes; ++i) {
    const overlay::NodeId from = net.random_alive(rng);
    const overlay::Key key = sys.naming_strategy().primary_key(
        corpus.vectors[rng.below(corpus.vectors.size())]);
    overlay::RouteResult r;
    us.add(1e6 * timed([&] { r = net.route(from, key); }));
    hops += static_cast<double>(r.hops);
  }
  const double mean_hops = hops / static_cast<double>(kRoutes);
  out.set("overlay.route_us_p50", us.median(), "us");
  out.set("overlay.route_hops_mean", mean_hops, "hops");
  out.set("overlay.route_hops_per_log_b_n", mean_hops / log_b_n(net), "ratio");
  out.set("overlay.bytes_per_node", net.memory_stats().bytes_per_node(), "B");
}

void probe_vsm(const core::Meteorograph& sys, const Corpus& corpus,
               std::uint64_t seed, MetricSink& out) {
  std::vector<overlay::NodeId> nodes = sys.network().alive_nodes();
  std::stable_sort(nodes.begin(), nodes.end(),
                   [&](overlay::NodeId a, overlay::NodeId b) {
                     return sys.store_of(a).size() > sys.store_of(b).size();
                   });
  nodes.resize(std::min<std::size_t>(8, nodes.size()));
  meteo::Rng rng(meteo::splitmix64(seed ^ 0x75e0ULL));
  Samples top_k_us;
  Samples match_us;
  std::vector<vsm::ScoredItem> scored;
  std::vector<vsm::ItemId> matched;
  for (std::size_t i = 0; i < 1500; ++i) {
    const core::AngleStore& store = sys.store_of(nodes[i % nodes.size()]);
    const vsm::SparseVector& q =
        corpus.vectors[rng.below(corpus.vectors.size())];
    const vsm::KeywordId kw = q.entries()[0].keyword;
    top_k_us.add(1e6 * timed([&] { store.top_k(q, 5, scored); }));
    match_us.add(1e6 * timed([&] {
                   store.match_all(std::span<const vsm::KeywordId>(&kw, 1),
                                   matched);
                 }));
  }
  out.set("vsm.top_k_us_p50", top_k_us.median(), "us");
  out.set("vsm.match_all_us_p50", match_us.median(), "us");
}

void probe_naming(const core::Meteorograph& sys, const Corpus& corpus,
                  std::uint64_t seed, MetricSink& out) {
  meteo::Rng rng(meteo::splitmix64(seed ^ 0x4a3eULL));
  constexpr std::size_t kBlock = 256;
  Samples per_key_us;
  overlay::Key sink = 0;
  for (int block = 0; block < 31; ++block) {
    std::vector<const vsm::SparseVector*> vs;
    for (std::size_t i = 0; i < kBlock; ++i) {
      vs.push_back(&corpus.vectors[rng.below(corpus.vectors.size())]);
    }
    const double s = timed([&] {
      for (const vsm::SparseVector* v : vs) {
        sink ^= sys.naming_strategy().primary_key(*v);
        sink ^= sys.raw_key(*v);
      }
    });
    per_key_us.add(1e6 * s / static_cast<double>(2 * kBlock));
  }
  out.set("naming.key_us", per_key_us.median(), "us");
  keep(sink);
}

double probe_seal_fixed(core::Meteorograph& sys, const Corpus& corpus,
                        std::span<const vsm::ItemId> live, std::size_t workers,
                        MetricSink& out) {
  core::EpochEngine engine(
      sys, {.workers = workers, .seed = 0x5ea1, .defer_read = nullptr});
  Samples us;
  for (std::size_t i = 0; i < 301; ++i) {
    const vsm::ItemId id = live[(i * 7919) % live.size()];
    engine.submit(core::LocateOp{id, &corpus.vectors[id], {}});
    us.add(1e6 * timed([&] { (void)engine.seal(); }));
  }
  out.set("epoch.seal_fixed_us", us.median(), "us");
  return us.median();
}

void emit_retrieve_model(const core::Meteorograph& sys, MetricSink& out) {
  const overlay::Overlay& net = sys.network();
  const double c = static_cast<double>(sys.stored_item_count()) /
                   static_cast<double>(net.alive_count());
  out.set("op.retrieve.model_msgs", (5.0 / c) * log_b_n(net), "msgs");
}

void emit_fault_rates(const core::Meteorograph& sys, double ops,
                      MetricSink& out) {
  const auto& m = sys.metrics();
  const double n = std::max(ops, 1.0);
  out.set("overlay.retries_per_op",
          static_cast<double>(m.counter_total(meteo::obs::names::kFaultRetries)) / n,
          "count");
  out.set("overlay.timeouts_per_op",
          static_cast<double>(m.counter_total(meteo::obs::names::kFaultTimeouts)) / n,
          "count");
}

}  // namespace perfbench
