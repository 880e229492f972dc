#pragma once

/// \file layers.hpp
/// Per-layer probes of the traced run. Each one times public library
/// calls from outside (no instrumentation inside the library) or reads
/// public counters, and writes its metrics into a MetricSink.

#include <cstdint>
#include <span>
#include <vector>

#include "common.hpp"
#include "corpus.hpp"
#include "meteorograph/directory.hpp"
#include "meteorograph/meteorograph.hpp"

namespace perfbench {

/// The operation kinds the benchmark issues (metric prefix op.<name>).
enum class Kind : std::uint8_t {
  kLocate,
  kRetrieve,
  kSearch,
  kRange,
  kPublish,
  kWithdraw,
  kDepart,
};
inline constexpr std::size_t kKinds = 7;
[[nodiscard]] const char* kind_name(Kind k);

/// Wall time, messages and fill per op kind, from a facade replay.
struct OpCoreStats {
  Samples us[kKinds];
  double messages[kKinds] = {};
  double retrieve_asked = 0.0;
  double retrieve_delivered = 0.0;
  double search_lookups = 0.0;
  double search_lookups_failed = 0.0;

  /// Writes op.<k>.us_p50/us_p90/busy_s/msgs_mean, op.retrieve.fill_share
  /// and op.search.lookups_failed_share.
  void emit(MetricSink& out) const;
};

/// A standalone DirectoryStore holding the pointers the system places on
/// its most loaded directory node: (item, balanced key, sorted keywords)
/// at closest_alive(raw_key). Also carries the skew census over all nodes.
class DirectoryReplica {
 public:
  /// Census of where the pointers of `census` land; the most loaded node
  /// becomes the replicated one. The first `preloaded` census items are
  /// already in the system and go into the replica now.
  void build(const meteo::core::Meteorograph& sys, const Corpus& corpus,
             std::span<const meteo::vsm::ItemId> census,
             std::size_t preloaded);
  /// Mirrors a publish: adds the item's pointer if it lands on the top node.
  void add(const meteo::core::Meteorograph& sys, const Corpus& corpus,
           meteo::vsm::ItemId id);
  /// One epoch of withdrawals on the replica (retention on, tombstone, then
  /// gc), as the epoch engine runs it on the live node. Returns seconds.
  double remove_and_gc(std::span<const meteo::vsm::ItemId> items,
                       meteo::vsm::Epoch epoch);
  void emit(const Corpus& corpus, MetricSink& out) const;

  Samples add_us;
  Samples remove_gc_ms;
  std::size_t census_pointers = 0;
  std::size_t top_node_pointers = 0;
  std::size_t nodes_with_pointers = 0;

 private:
  void add_pointer(const meteo::core::Meteorograph& sys, const Corpus& corpus,
                   meteo::vsm::ItemId id);
  [[nodiscard]] bool holds(meteo::vsm::ItemId item) const;

  meteo::overlay::NodeId top_ = meteo::overlay::kInvalidNode;
  meteo::core::DirectoryStore store_;
  std::vector<std::uint8_t> held_;  // by ItemId
};

/// overlay.*: route latency and hops from random sources to item keys,
/// bytes per node, and hops per log_b N.
void probe_overlay(const meteo::core::Meteorograph& sys, const Corpus& corpus,
                   std::uint64_t seed, MetricSink& out);
/// vsm.*: AngleStore top_k and match_all on the most loaded nodes.
void probe_vsm(const meteo::core::Meteorograph& sys, const Corpus& corpus,
               std::uint64_t seed, MetricSink& out);
/// naming.key_us: the op-path key plus the directory key of a vector.
void probe_naming(const meteo::core::Meteorograph& sys, const Corpus& corpus,
                  std::uint64_t seed, MetricSink& out);
/// epoch.seal_fixed_us: an EpochEngine seal of a single locate of a `live`
/// item. Returns the median in microseconds. The system must not be bound
/// to another engine.
double probe_seal_fixed(meteo::core::Meteorograph& sys, const Corpus& corpus,
                        std::span<const meteo::vsm::ItemId> live,
                        std::size_t workers, MetricSink& out);
/// op.retrieve.model_msgs: the paper's (k/c)·log_b N for a k = 5 retrieve,
/// c = stored items per alive node (a count to set next to msgs_mean).
void emit_retrieve_model(const meteo::core::Meteorograph& sys, MetricSink& out);
/// overlay.retries_per_op / overlay.timeouts_per_op from the metric
/// registry's fault counters, over `ops` operations.
void emit_fault_rates(const meteo::core::Meteorograph& sys, double ops,
                      MetricSink& out);

}  // namespace perfbench
