#include "corpus.hpp"

#include <algorithm>
#include <fstream>
#include <string>

namespace perfbench {

namespace core = meteo::core;
namespace vsm = meteo::vsm;

std::unique_ptr<Corpus> make_corpus(const CorpusSpec& spec,
                                    std::uint64_t seed) {
  meteo::workload::TraceConfig cfg;
  cfg.num_items = spec.items;
  cfg.num_keywords = spec.keywords;
  cfg.mean_basket = 43.0;  // Table 1
  cfg.min_basket = 1;
  cfg.max_basket = 11'868;
  auto corpus = std::make_unique<Corpus>(
      Corpus{meteo::workload::synthesize_trace(cfg, seed), {}, {}, {}, 0});

  const std::vector<double> weights =
      corpus->trace.keyword_weights(meteo::workload::WeightScheme::kIdf);
  corpus->vectors.reserve(spec.items);
  Digest fp;
  for (std::size_t i = 0; i < spec.items; ++i) {
    corpus->vectors.push_back(corpus->trace.vector_of(i, weights));
    for (const vsm::Entry& e : corpus->vectors.back().entries()) {
      fp.mix(e.keyword);
      fp.mix_double(e.weight);
    }
    fp.mix(~std::uint64_t{0});  // item boundary
  }
  corpus->fingerprint = fp.value();

  // 0.5% bootstrap sample (§3.4), deterministic stride.
  const std::size_t stride = std::max<std::size_t>(1, spec.items / 200);
  for (std::size_t i = 0; i < spec.items; i += stride) {
    corpus->sample.push_back(corpus->vectors[i]);
  }

  const auto& df = corpus->trace.document_frequency();
  for (vsm::KeywordId k = 0; k < df.size(); ++k) {
    if (df[k] > 0) corpus->by_popularity.push_back(k);
  }
  std::sort(corpus->by_popularity.begin(), corpus->by_popularity.end(),
            [&](vsm::KeywordId a, vsm::KeywordId b) {
              if (df[a] != df[b]) return df[a] > df[b];
              return a < b;
            });
  return corpus;
}

std::unique_ptr<core::Meteorograph> make_system(const CorpusSpec& spec,
                                                const Corpus& corpus,
                                                std::uint64_t seed) {
  core::SystemConfig cfg;
  cfg.node_count = spec.nodes;
  cfg.dimension = spec.keywords;
  cfg.load_balance = core::LoadBalanceMode::kUnusedHashSpacePlusHotRegions;
  cfg.replicas = 1;
  cfg.overlay.retry.max_retries = 3;
  return std::make_unique<core::Meteorograph>(cfg, corpus.sample,
                                              seed ^ 0x9e37u);
}

core::AttributeId preload(core::Meteorograph& sys, const Corpus& corpus,
                          std::size_t count) {
  const core::AttributeId attr = sys.register_attribute(0.0, 1.0);
  for (vsm::ItemId id = 0; id < count; ++id) {
    (void)sys.publish(id, corpus.vectors[id]);
    if (id % 16 == 0) {
      sys.publish_attribute(
          id, attr, static_cast<double>(id) / static_cast<double>(count));
    }
  }
  return attr;
}

Setup run_setup(const RunParams& params, bool with_preload) {
  Setup s;
  s.synth_s = timed([&] { s.corpus = make_corpus(params.corpus, kCorpusSeed); });
  s.build_s = timed(
      [&] { s.system = make_system(params.corpus, *s.corpus, kCorpusSeed); });
  const std::size_t n = with_preload ? base_items(*s.corpus) : 0;
  s.preload_s =
      timed([&] { s.attribute = preload(*s.system, *s.corpus, n); });
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace perfbench
