/// Scale smoke test (tier 1): a 10^4-node overlay assembled with
/// bulk_join() in well under a second, checked against (a) the
/// sequential sorted-join + repair() construction it is contractually
/// equivalent to, and (b) a brute-force linear scan for closest-node
/// queries. Also pins the memory accounting the scale bench
/// (bench/scale.cpp) reports: bytes/node stays within 15% of the
/// compact layout DESIGN.md §13 describes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "overlay/overlay.hpp"

namespace meteo::overlay {
namespace {

constexpr std::size_t kNodes = 10'000;

std::vector<Key> sorted_unique_keys(std::size_t count, Key key_space,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Key> keys;
  keys.reserve(count + count / 4);
  while (true) {
    while (keys.size() < count + count / 4) keys.push_back(rng.below(key_space));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (keys.size() >= count) {
      keys.resize(count);
      return keys;
    }
  }
}

TEST(ScaleSmoke, BulkJoinEquivalentToSequentialJoins) {
  OverlayConfig config;
  const std::vector<Key> keys =
      sorted_unique_keys(kNodes, config.key_space, 20260810);

  Overlay bulk(config);
  bulk.bulk_join(keys);
  ASSERT_EQ(bulk.alive_count(), kNodes);

  Overlay sequential(config);
  for (const Key key : keys) ASSERT_TRUE(sequential.join(key).has_value());
  sequential.repair();

  // Ascending joins assign ids in key order, exactly like bulk_join.
  ASSERT_EQ(bulk.alive_nodes(), sequential.alive_nodes());
  for (NodeId id = 0; id < kNodes; ++id) {
    ASSERT_EQ(bulk.key_of(id), sequential.key_of(id));
    const RoutingTableView a = bulk.table_of(id);
    const RoutingTableView b = sequential.table_of(id);
    ASSERT_EQ(a.predecessor, b.predecessor) << "node " << id;
    ASSERT_EQ(a.successor, b.successor) << "node " << id;
    ASSERT_TRUE(std::equal(a.fingers.begin(), a.fingers.end(),
                           b.fingers.begin(), b.fingers.end()))
        << "node " << id;
    ASSERT_TRUE(std::equal(a.leaf_set.begin(), a.leaf_set.end(),
                           b.leaf_set.begin(), b.leaf_set.end()))
        << "node " << id;
  }
}

TEST(ScaleSmoke, ClosestQueriesMatchBruteForce) {
  OverlayConfig config;
  const std::vector<Key> keys =
      sorted_unique_keys(kNodes, config.key_space, 99);
  Overlay overlay(config);
  overlay.bulk_join(keys);

  Rng rng(4242);
  std::vector<NodeId> buffer;
  for (int probe = 0; probe < 64; ++probe) {
    const Key target = rng.below(config.key_space);
    // Brute-force closest: min distance, ties toward the smaller key.
    NodeId best = 0;
    for (NodeId id = 1; id < kNodes; ++id) {
      if (strictly_closer(overlay.key_of(id), overlay.key_of(best), target)) {
        best = id;
      }
    }
    EXPECT_EQ(overlay.closest_alive(target), best);

    // closest_nodes(k): every returned node beats every excluded node.
    const std::size_t k = 1 + rng.below(8);
    overlay.closest_nodes(target, k, buffer);
    ASSERT_EQ(buffer.size(), std::min(k, kNodes));
    EXPECT_EQ(buffer.front(), best);
    EXPECT_EQ(buffer, overlay.closest_nodes(target, k));
  }
}

TEST(ScaleSmoke, RoutesConvergeAndMemoryStaysCompact) {
  OverlayConfig config;
  const std::vector<Key> keys =
      sorted_unique_keys(kNodes, config.key_space, 7);
  Overlay overlay(config);
  overlay.bulk_join(keys);

  Rng rng(13);
  for (int probe = 0; probe < 32; ++probe) {
    const NodeId from = overlay.random_alive(rng);
    const Key target = rng.below(config.key_space);
    const RouteResult result = overlay.route(from, target);
    EXPECT_TRUE(result.reached_closest);
    EXPECT_FALSE(result.stranded);
    // O(log_base N) routing: generous ceiling for base 4 at N = 10^4.
    EXPECT_LE(result.hops, 32u);
  }

  const OverlayMemoryStats stats = overlay.memory_stats();
  EXPECT_EQ(stats.node_count, kNodes);
  EXPECT_EQ(stats.alive_count, kNodes);
  // The compact layout: fingers + leaves in pooled u32 runs plus the
  // flat arrays and the chunked registry. The accounting is
  // deterministic (232.6 B/node here, whatever the key seed); 15% slack
  // lets the pools' growth policy move but fails any layout that adds
  // ~35 B or more to a node.
  EXPECT_LT(stats.bytes_per_node(), 232.6 * 1.15);
  EXPECT_GT(stats.bytes_per_node(), 16.0);
}

TEST(ScaleSmoke, ChurnAfterBulkJoinStaysConsistent) {
  OverlayConfig config;
  const std::vector<Key> keys =
      sorted_unique_keys(kNodes, config.key_space, 31);
  Overlay overlay(config);
  overlay.bulk_join(keys);

  Rng rng(61);
  // Mixed churn on top of the bulk-built ring.
  for (int step = 0; step < 500; ++step) {
    if (rng.below(2) == 0) {
      (void)overlay.join(rng.below(config.key_space));
    } else {
      overlay.leave(overlay.random_alive(rng));
    }
  }
  overlay.repair();
  const std::vector<NodeId> alive = overlay.alive_nodes();
  ASSERT_EQ(alive.size(), overlay.alive_count());
  // alive_nodes is in ascending key order by contract.
  for (std::size_t i = 1; i < alive.size(); ++i) {
    EXPECT_LT(overlay.key_of(alive[i - 1]), overlay.key_of(alive[i]));
  }
  for (const NodeId id : alive) {
    EXPECT_EQ(overlay.closest_alive(overlay.key_of(id)), id);
  }
}

}  // namespace
}  // namespace meteo::overlay
