#pragma once

/// \file corpus.hpp
/// The benchmark corpus and system set-up: the repository's harness
/// corpus (Table 1 market baskets, IDF weights, 0.5% bootstrap sample)
/// rebuilt from kCorpusSeed, and a Meteorograph over it with hot-region
/// naming. Everything here is public library API.

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "meteorograph/meteorograph.hpp"
#include "workload/trace.hpp"

namespace perfbench {

struct Corpus {
  meteo::workload::Trace trace;
  std::vector<meteo::vsm::SparseVector> vectors;  // index == ItemId
  std::vector<meteo::vsm::SparseVector> sample;   // ~0.5% of vectors
  /// Keywords by descending document frequency (ties: smaller id first).
  std::vector<meteo::vsm::KeywordId> by_popularity;
  std::uint64_t fingerprint = 0;
};

/// Seed of the corpus and the system built over it: the harness default
/// (the repository's benches run with --seed 1). Every run serves this one
/// corpus on this one overlay; --seed picks what is asked of it (the
/// request sequence, the fault plan and the engines' seeds). With a corpus
/// per seed, seeds differed in the hot directory node's size and in how
/// far retrieves walk, which moved every figure more than any bound allows
/// between runs of the same code.
inline constexpr std::uint64_t kCorpusSeed = 1;

/// Synthesizes the corpus deterministically from `seed`.
[[nodiscard]] std::unique_ptr<Corpus> make_corpus(const CorpusSpec& spec,
                                                  std::uint64_t seed);

/// Builds the system the repository's benches build: `spec.nodes` peers,
/// unused-hash-space + hot-region naming, one replica, three retries.
[[nodiscard]] std::unique_ptr<meteo::core::Meteorograph> make_system(
    const CorpusSpec& spec, const Corpus& corpus, std::uint64_t seed);

/// Preloads items [0, count) through the facade, plus an attribute record
/// on every 16th item (values spread over [0, 1)). Returns the attribute.
meteo::core::AttributeId preload(meteo::core::Meteorograph& sys,
                                 const Corpus& corpus, std::size_t count);

/// One full set-up, timed by phase.
struct Setup {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<meteo::core::Meteorograph> system;
  meteo::core::AttributeId attribute = 0;
  double synth_s = 0.0;
  double build_s = 0.0;
  double preload_s = 0.0;
  [[nodiscard]] double total_s() const { return synth_s + build_s + preload_s; }
};

/// Items preloaded by the serve workloads: the first 90% of the corpus.
[[nodiscard]] inline std::size_t base_items(const Corpus& c) {
  return c.vectors.size() * 9 / 10;
}

/// Synthesizes and builds; with `preload`, also preloads base_items().
[[nodiscard]] Setup run_setup(const RunParams& params, bool preload);

}  // namespace perfbench
