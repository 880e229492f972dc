/// Ablation: the naming strategy (DESIGN.md §12) — the paper's fitted
/// absolute-angle scheme vs an order-preserving range key vs
/// random-hyperplane multi-probe LSH. Measures recall@10 against
/// brute-force cosine ground truth and messages per query on two
/// workloads: the market-basket trace the paper's scheme was fitted for,
/// and a clustered high-dimensional embedding workload where a single
/// 1-D angle projection collapses. tools/bench_gate.py runs a small,
/// deterministic configuration of this bench and bounds its recall@10
/// and msgs/query per workload and strategy.

#include <algorithm>
#include <vector>

#include "bench/harness.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace {

using namespace meteo;

/// One published corpus plus held-out queries with brute-force truth.
struct AblationWorkload {
  const char* name = "";
  std::size_t dimension = 0;
  std::vector<vsm::SparseVector> corpus;
  std::vector<vsm::SparseVector> sample;
  std::vector<vsm::SparseVector> queries;
  std::vector<std::vector<vsm::ItemId>> truth;  ///< top-k ids per query
};

constexpr std::size_t kTopK = 10;

/// Exact top-k ids by cosine against the corpus (score desc, id asc).
std::vector<vsm::ItemId> brute_force_top_k(
    const vsm::SparseVector& query,
    const std::vector<vsm::SparseVector>& corpus) {
  std::vector<vsm::ScoredItem> scored;
  scored.reserve(corpus.size());
  for (std::size_t id = 0; id < corpus.size(); ++id) {
    const double score = vsm::cosine_similarity(query, corpus[id]);
    if (score > 0.0) scored.push_back({id, score});
  }
  std::sort(scored.begin(), scored.end(),
            [](const vsm::ScoredItem& a, const vsm::ScoredItem& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.id < b.id;
            });
  if (scored.size() > kTopK) scored.resize(kTopK);
  std::vector<vsm::ItemId> ids;
  for (const vsm::ScoredItem& s : scored) ids.push_back(s.id);
  return ids;
}

void finish_workload(AblationWorkload& wl) {
  for (std::size_t i = 0; i < wl.corpus.size(); i += 97) {
    wl.sample.push_back(wl.corpus[i]);
  }
  for (const vsm::SparseVector& q : wl.queries) {
    wl.truth.push_back(brute_force_top_k(q, wl.corpus));
  }
}

/// The market-basket trace the paper's Eq. 5/6 fit targets; queries are
/// held-out baskets from the same generator.
AblationWorkload basket_workload(const bench::ExperimentFlags& flags,
                                 std::size_t items, std::size_t queries) {
  workload::TraceConfig tc;
  tc.num_items = items + queries;
  tc.num_keywords = flags.keywords;
  tc.mean_basket = 12.0;
  tc.max_basket = 200;
  const workload::Trace trace = workload::synthesize_trace(tc, flags.seed);
  const auto weights = trace.keyword_weights(flags.weights);

  AblationWorkload wl;
  wl.name = "basket";
  wl.dimension = flags.keywords;
  for (std::size_t i = 0; i < items; ++i) {
    wl.corpus.push_back(trace.vector_of(i, weights));
  }
  for (std::size_t i = items; i < items + queries; ++i) {
    wl.queries.push_back(trace.vector_of(i, weights));
  }
  finish_workload(wl);
  return wl;
}

/// Clustered high-dimensional embeddings: items are noisy copies of
/// cluster prototypes, queries are fresh perturbations of published
/// items. Every cluster spans the keyword space uniformly, so the
/// absolute angle concentrates and carries little cluster identity —
/// the regime the LSH strategy exists for.
AblationWorkload synthetic_workload(const bench::ExperimentFlags& flags,
                                    std::size_t items, std::size_t queries) {
  constexpr std::size_t kDimension = 8192;
  constexpr std::size_t kClusters = 40;
  constexpr std::size_t kCenterTerms = 48;
  constexpr std::size_t kNoiseTerms = 12;

  Rng rng(flags.seed ^ 0x5b4e7a11ULL);
  std::vector<std::vector<vsm::Entry>> centers(kClusters);
  for (auto& center : centers) {
    for (std::size_t t = 0; t < kCenterTerms; ++t) {
      center.push_back({static_cast<vsm::KeywordId>(rng.below(kDimension)),
                        rng.uniform(0.5, 1.5)});
    }
  }
  auto perturb = [&](const std::vector<vsm::Entry>& center) {
    std::vector<vsm::Entry> entries;
    for (const vsm::Entry& e : center) {
      if (rng.chance(0.25)) continue;  // keyword dropout
      entries.push_back({e.keyword, e.weight * rng.uniform(0.7, 1.3)});
    }
    for (std::size_t t = 0; t < kNoiseTerms; ++t) {
      entries.push_back({static_cast<vsm::KeywordId>(rng.below(kDimension)),
                         rng.uniform(0.1, 0.6)});
    }
    return vsm::SparseVector::from_entries(std::move(entries));
  };

  AblationWorkload wl;
  wl.name = "synthetic";
  wl.dimension = kDimension;
  for (std::size_t i = 0; i < items; ++i) {
    wl.corpus.push_back(perturb(centers[i % kClusters]));
  }
  for (std::size_t q = 0; q < queries; ++q) {
    wl.queries.push_back(perturb(centers[rng.below(kClusters)]));
  }
  finish_workload(wl);
  return wl;
}

struct StrategyResult {
  const char* strategy = "";
  double recall = 0.0;
  double messages_per_query = 0.0;
  double publish_messages_per_item = 0.0;
};

StrategyResult run_strategy(const bench::ExperimentFlags& flags,
                            const AblationWorkload& wl,
                            core::NamingStrategyKind kind, const char* name,
                            std::size_t nodes) {
  core::SystemConfig cfg;
  cfg.node_count = nodes;
  cfg.dimension = wl.dimension;
  cfg.naming.strategy = kind;
  // Same harvest budget for every strategy: the primary probe may walk 24
  // nodes; each extra LSH probe gets the config's short probe_walk. The
  // recall difference is then purely where the naming put the items.
  cfg.max_walk_nodes = 24;
  core::Meteorograph sys(cfg, wl.sample, flags.seed ^ 0x6e61);

  StrategyResult out;
  out.strategy = name;
  std::size_t publish_messages = 0;
  for (vsm::ItemId id = 0; id < wl.corpus.size(); ++id) {
    publish_messages += sys.publish(id, wl.corpus[id]).total_messages();
  }
  out.publish_messages_per_item = static_cast<double>(publish_messages) /
                                  static_cast<double>(wl.corpus.size());

  OnlineStats recall;
  OnlineStats messages;
  for (std::size_t q = 0; q < wl.queries.size(); ++q) {
    const core::RetrieveResult r = sys.retrieve(wl.queries[q], kTopK);
    std::size_t hits = 0;
    for (const vsm::ItemId id : wl.truth[q]) {
      for (const vsm::ScoredItem& item : r.items) {
        if (item.id == id) {
          ++hits;
          break;
        }
      }
    }
    const std::size_t denom = std::max<std::size_t>(wl.truth[q].size(), 1);
    recall.add(static_cast<double>(hits) / static_cast<double>(denom));
    messages.add(static_cast<double>(r.total_messages()));
  }
  out.recall = recall.mean();
  out.messages_per_query = messages.mean();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  const bench::ExperimentFlags flags = bench::read_common_flags(cli);
  // Brute-force ground truth is O(queries * items); keep the default runs
  // well under the suite's time budget.
  const std::size_t items = std::min<std::size_t>(flags.items, 9'000);
  const std::size_t queries = std::min<std::size_t>(flags.queries, 300);
  const std::size_t nodes = std::min<std::size_t>(flags.nodes, 500);

  bench::banner("Ablation: naming strategy (recall vs messages)", flags.csv);

  const AblationWorkload workloads[] = {
      basket_workload(flags, items, queries),
      synthetic_workload(flags, std::min<std::size_t>(items, 6'000), queries),
  };
  const std::pair<core::NamingStrategyKind, const char*> strategies[] = {
      {core::NamingStrategyKind::kAngle, "angle"},
      {core::NamingStrategyKind::kRangeKey, "range"},
      {core::NamingStrategyKind::kLsh, "lsh"},
  };

  TextTable table({"workload", "strategy", "recall@10", "msgs/query",
                   "publish msgs/item"});
  for (const AblationWorkload& wl : workloads) {
    for (const auto& [kind, name] : strategies) {
      const StrategyResult r = run_strategy(flags, wl, kind, name, nodes);
      table.add_row({wl.name, r.strategy, TextTable::num(r.recall),
                     TextTable::num(r.messages_per_query),
                     TextTable::num(r.publish_messages_per_item, 2)});
    }
  }
  bench::emit(table, flags.csv);
  return 0;
}
