/// Versioned-view oracle for the node stores that serve pinned reads
/// (DESIGN.md §11): `AngleStore` (over `vsm::LocalIndex`), the bare
/// `LocalIndex`, and `ReplicaStore`.
///
/// Each seeded schedule drives a retaining store through the window
/// protocol the EpochEngine uses — arm retention with write epoch E+1,
/// mutate, gc at the boundary, now and then a disarmed stretch — while a
/// plain twin receives the same mutations with retention off. After every
/// mutation, each `*_at` answer at the pinned epoch E must equal the
/// plain answer of a snapshot taken when the window opened, and the
/// answers at E+1 and at kEpochLatest must equal the plain twin: the same
/// ids in the same order with the same score bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "meteorograph/storage.hpp"
#include "vsm/local_index.hpp"

namespace meteo::core {
namespace {

using vsm::Epoch;
using vsm::ItemId;
using vsm::KeywordId;
using vsm::ScoredItem;
using vsm::SparseVector;

constexpr std::size_t kDims = 24;    // small vocabulary: queries overlap
constexpr ItemId kIds = 40;          // ids 0..39: replaces are common
constexpr std::size_t kWindows = 60;
constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

SparseVector random_vector(Rng& rng) {
  const bool binary = rng.chance(0.4);  // binary vectors make score ties
  std::vector<vsm::Entry> entries;
  const std::size_t nnz = 1 + rng.below(6);
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.push_back(vsm::Entry{static_cast<KeywordId>(rng.below(kDims)),
                                 binary ? 1.0 : rng.uniform(0.1, 2.0)});
  }
  return SparseVector::from_entries(std::move(entries));
}

std::vector<KeywordId> random_keywords(Rng& rng) {
  std::vector<KeywordId> kws;
  const std::size_t n = rng.below(4);  // 0 = "match everything"
  for (std::size_t i = 0; i < n; ++i) {
    kws.push_back(static_cast<KeywordId>(rng.below(kDims)));
  }
  std::sort(kws.begin(), kws.end());
  kws.erase(std::unique(kws.begin(), kws.end()), kws.end());
  return kws;
}

void expect_same_scored(const std::vector<ScoredItem>& got,
                        const std::vector<ScoredItem>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << what << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << what << " rank " << i;
  }
}

/// One draw of read arguments, asked of the retaining store and of the
/// plain store alike. `k` also caps the early-stopping replica walk.
struct Probe {
  SparseVector query;
  std::size_t k = 0;
  std::vector<KeywordId> keywords;
  double tau = 0.0;
  SparseVector reference;
};

Probe random_probe(Rng& rng) {
  Probe p;
  p.query = random_vector(rng);
  p.k = rng.below(kIds / 2);
  p.keywords = random_keywords(rng);
  p.tau = rng.uniform(0.0, 1.6);
  p.reference = random_vector(rng);
  return p;
}

/// Drives a retaining store and its plain twin through kWindows windows
/// of the engine's protocol: arm retention with write epoch E+1 (or, now
/// and then, disarm it as the engine's destructor does), mutate both,
/// gc at the boundary. After every mutation the answers at E must match
/// a snapshot of the plain twin taken when the window opened, and those
/// at E+1 and kEpochLatest, and the live ones, the plain twin itself.
///   mutate(versioned, plain, rng)          one mutation applied to both
///   expect_at(versioned, at, ref, p, where)   *_at answers vs ref's live
///   expect_live(versioned, plain, p, where)   live answers vs plain's
template <typename Store, typename Snapshot, typename Mutate,
          typename ExpectAt, typename ExpectLive>
void run_windows(std::uint64_t seed, const Snapshot& snapshot_fn,
                 const Mutate& mutate, const ExpectAt& expect_at,
                 const ExpectLive& expect_live) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Rng rng(seed);
  Store versioned;
  Store plain;
  Epoch pinned = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const bool armed = !rng.chance(0.15);
    if (armed) {
      versioned.retain_versions(true);
      versioned.set_write_epoch(pinned + 1);
    } else {
      versioned.retain_versions(false);
      versioned.set_write_epoch(0);
      versioned.gc();
    }
    const Store snapshot = snapshot_fn(plain);
    const std::size_t steps = rng.below(12);
    for (std::size_t s = 0; s < steps; ++s) {
      mutate(versioned, plain, rng);
      const Probe p = random_probe(rng);
      const std::string where =
          "window " + std::to_string(w) + " step " + std::to_string(s);
      expect_at(versioned, pinned, armed ? snapshot : plain, p, where + " @E");
      if (armed) expect_at(versioned, pinned + 1, plain, p, where + " @E+1");
      expect_at(versioned, vsm::kEpochLatest, plain, p, where + " @latest");
      expect_live(versioned, plain, p, where);
    }
    if (armed) {
      versioned.gc();
      ++pinned;
    }
    const Probe p = random_probe(rng);
    const std::string where = "after window " + std::to_string(w);
    expect_at(versioned, pinned, plain, p, where);
    expect_live(versioned, plain, p, where);
  }
}

/// Snapshot of a store that never retains: a plain copy.
template <typename Store>
Store copy_of(const Store& s) {
  return s;
}

// ---------------------------------------------------------------------------
// AngleStore
// ---------------------------------------------------------------------------

/// A plain store holding `s`'s latest items (the *_at answers depend only
/// on the item set, not on insertion history).
AngleStore snapshot_of(const AngleStore& s) {
  AngleStore out;
  s.for_each([&out](const StoredEntry& e) { out.insert(e); });
  return out;
}

/// `versioned` read at `at` answers like `plain` read live.
void expect_angle_at(const AngleStore& versioned, Epoch at,
                     const AngleStore& plain, const Probe& p,
                     const std::string& where) {
  std::vector<ScoredItem> scored;
  versioned.top_k_at(p.query, p.k, at, scored);
  expect_same_scored(scored, plain.top_k(p.query, p.k), where + " top_k_at");
  std::vector<ItemId> ids;
  versioned.match_all_at(p.keywords, at, ids);
  EXPECT_EQ(ids, plain.match_all(p.keywords)) << where << " match_all_at";
  EXPECT_EQ(versioned.empty_at(at), plain.empty()) << where << " empty_at";
  for (ItemId id = 0; id < kIds; ++id) {
    EXPECT_EQ(versioned.contains_at(id, at), plain.contains(id))
        << where << " contains_at " << id;
  }
}

/// The live accessors of `versioned` answer like those of `plain`.
void expect_angle_live(const AngleStore& versioned, const AngleStore& plain,
                       const Probe& p, const std::string& where) {
  expect_same_scored(versioned.top_k(p.query, p.k), plain.top_k(p.query, p.k),
                     where + " top_k");
  EXPECT_EQ(versioned.match_all(p.keywords), plain.match_all(p.keywords))
      << where << " match_all";
  ASSERT_EQ(versioned.size(), plain.size()) << where;
  EXPECT_EQ(versioned.empty(), plain.empty()) << where;
  for (ItemId id = 0; id < kIds; ++id) {
    EXPECT_EQ(versioned.contains(id), plain.contains(id))
        << where << " " << id;
    const SparseVector* got = versioned.vector_of(id);
    const SparseVector* want = plain.vector_of(id);
    ASSERT_EQ(got != nullptr, want != nullptr)
        << where << " vector_of " << id;
    if (got != nullptr) {
      EXPECT_EQ(*got, *want) << where << " vector_of " << id;
    }
  }
  if (!plain.empty()) {
    EXPECT_EQ(versioned.min_raw_key(), plain.min_raw_key()) << where;
    EXPECT_EQ(versioned.max_raw_key(), plain.max_raw_key()) << where;
  }
  std::vector<std::pair<ItemId, overlay::Key>> got;
  std::vector<std::pair<ItemId, overlay::Key>> want;
  versioned.for_each(
      [&](const StoredEntry& e) { got.emplace_back(e.id, e.raw_key); });
  plain.for_each(
      [&](const StoredEntry& e) { want.emplace_back(e.id, e.raw_key); });
  EXPECT_EQ(got, want) << where << " for_each";
}

/// One random mutation, applied to both stores; return values must agree.
void mutate_angle(AngleStore& versioned, AngleStore& plain, Rng& rng) {
  const std::uint64_t op = rng.below(100);
  if (op < 45) {  // insert a fresh id or replace a stored one
    const StoredEntry e{rng.below(kIds), rng.below(64), random_vector(rng)};
    versioned.insert(e);
    plain.insert(e);
  } else if (op < 75) {  // erase (sometimes absent)
    const ItemId id = rng.below(kIds);
    EXPECT_EQ(versioned.erase(id), plain.erase(id)) << "erase " << id;
  } else if (!plain.empty()) {  // evict under a random policy
    const StoredEntry incoming{kIds, rng.below(64), random_vector(rng)};
    const auto policy = static_cast<EvictionPolicy>(rng.below(3));
    const Eviction got = versioned.evict(incoming, policy);
    const Eviction want = plain.evict(incoming, policy);
    EXPECT_EQ(got.entry.id, want.entry.id) << "evict";
    EXPECT_EQ(got.entry.raw_key, want.entry.raw_key) << "evict";
    EXPECT_EQ(got.entry.vector, want.entry.vector) << "evict";
    EXPECT_EQ(got.side, want.side) << "evict";
  }
}

TEST(VersionedViewOracle, AngleStoreMatchesEpochSnapshots) {
  for (const std::uint64_t seed : kSeeds) {
    run_windows<AngleStore>(seed, snapshot_of, mutate_angle, expect_angle_at,
                            expect_angle_live);
  }
}

// ---------------------------------------------------------------------------
// LocalIndex: the kernels AngleStore does not expose
// ---------------------------------------------------------------------------

void expect_index_live(const vsm::LocalIndex& versioned,
                       const vsm::LocalIndex& plain, const Probe& p,
                       const std::string& where) {
  expect_same_scored(versioned.top_k(p.query, p.k), plain.top_k(p.query, p.k),
                     where + " top_k");
  expect_same_scored(versioned.within_angle(p.query, p.tau),
                     plain.within_angle(p.query, p.tau),
                     where + " within_angle");
  EXPECT_EQ(versioned.match_all(p.keywords), plain.match_all(p.keywords))
      << where << " match_all";
  EXPECT_EQ(versioned.match_any(p.keywords), plain.match_any(p.keywords))
      << where << " match_any";
  EXPECT_EQ(versioned.least_similar(p.reference),
            plain.least_similar(p.reference))
      << where << " least_similar";
  EXPECT_EQ(versioned.size(), plain.size()) << where;
  EXPECT_EQ(versioned.empty(), plain.empty()) << where;
}

void expect_index_at(const vsm::LocalIndex& versioned, Epoch at,
                     const vsm::LocalIndex& plain, const Probe& p,
                     const std::string& where) {
  std::vector<ScoredItem> scored;
  versioned.top_k_at(p.query, p.k, at, scored);
  expect_same_scored(scored, plain.top_k(p.query, p.k), where + " top_k_at");
  std::vector<ItemId> ids;
  versioned.match_all_at(p.keywords, at, ids);
  EXPECT_EQ(ids, plain.match_all(p.keywords)) << where << " match_all_at";
  EXPECT_EQ(versioned.empty_at(at), plain.empty()) << where << " empty_at";
  for (ItemId id = 0; id < kIds; ++id) {
    EXPECT_EQ(versioned.contains_at(id, at), plain.contains(id))
        << where << " contains_at " << id;
  }
}

void mutate_index(vsm::LocalIndex& versioned, vsm::LocalIndex& plain,
                  Rng& rng) {
  const std::uint64_t op = rng.below(100);
  const ItemId id = rng.below(kIds);
  if (op < 45) {
    const SparseVector v = random_vector(rng);
    versioned.insert(id, v);
    plain.insert(id, v);
  } else if (op < 65) {
    EXPECT_EQ(versioned.erase(id), plain.erase(id)) << "erase " << id;
  } else if (op < 80) {
    const auto got = versioned.take(id);
    const auto want = plain.take(id);
    ASSERT_EQ(got.has_value(), want.has_value()) << "take " << id;
    if (got.has_value()) {
      EXPECT_EQ(got->id, want->id);
      EXPECT_EQ(got->vector, want->vector);
    }
  } else {
    const SparseVector ref = random_vector(rng);
    const auto got = versioned.evict_least_similar(ref);
    const auto want = plain.evict_least_similar(ref);
    ASSERT_EQ(got.has_value(), want.has_value()) << "evict";
    if (got.has_value()) {
      EXPECT_EQ(got->id, want->id);
      EXPECT_EQ(got->vector, want->vector);
    }
  }
}

TEST(VersionedViewOracle, LocalIndexMatchesEpochSnapshots) {
  for (const std::uint64_t seed : kSeeds) {
    run_windows<vsm::LocalIndex>(seed * 101, copy_of<vsm::LocalIndex>,
                                 mutate_index, expect_index_at,
                                 expect_index_live);
  }
}

// ---------------------------------------------------------------------------
// ReplicaStore
// ---------------------------------------------------------------------------

using Copies = std::vector<std::pair<ItemId, SparseVector>>;

/// The id-ordered copies `store` shows at `at`, stopping after `limit`.
Copies copies_at(const ReplicaStore& store, Epoch at,
                 std::size_t limit = ~std::size_t{0}) {
  Copies out;
  store.for_each_at(at, [&](ItemId id, const SparseVector& v) {
    if (out.size() == limit) return false;
    out.emplace_back(id, v);
    return true;
  });
  return out;
}

void expect_replicas_at(const ReplicaStore& versioned, Epoch at,
                        const ReplicaStore& plain, const Probe& p,
                        const std::string& where) {
  EXPECT_EQ(copies_at(versioned, at), copies_at(plain, vsm::kEpochLatest))
      << where << " for_each_at";
  EXPECT_EQ(copies_at(versioned, at, p.k),
            copies_at(plain, vsm::kEpochLatest, p.k))
      << where << " for_each_at, stopped after " << p.k;
  for (ItemId id = 0; id < kIds; ++id) {
    EXPECT_EQ(versioned.contains_at(id, at), plain.contains(id))
        << where << " contains_at " << id;
  }
}

void expect_replicas_live(const ReplicaStore& versioned,
                          const ReplicaStore& plain, const Probe& /*p*/,
                          const std::string& where) {
  EXPECT_EQ(versioned.size(), plain.size()) << where;
  EXPECT_EQ(versioned.empty(), plain.empty()) << where;
  for (ItemId id = 0; id < kIds; ++id) {
    EXPECT_EQ(versioned.contains(id), plain.contains(id))
        << where << " " << id;
  }
}

void mutate_replicas(ReplicaStore& versioned, ReplicaStore& plain, Rng& rng) {
  const std::uint64_t op = rng.below(100);
  const ItemId id = rng.below(kIds);
  if (op < 40) {
    const SparseVector v = random_vector(rng);
    versioned.insert_or_assign(id, v);
    plain.insert_or_assign(id, v);
  } else if (op < 60) {
    const SparseVector v = random_vector(rng);
    EXPECT_EQ(versioned.emplace(id, v), plain.emplace(id, v)) << "emplace";
  } else {
    EXPECT_EQ(versioned.erase(id), plain.erase(id)) << "erase " << id;
  }
}

TEST(VersionedViewOracle, ReplicaStoreMatchesEpochSnapshots) {
  for (const std::uint64_t seed : kSeeds) {
    run_windows<ReplicaStore>(seed * 7919, copy_of<ReplicaStore>,
                              mutate_replicas, expect_replicas_at,
                              expect_replicas_live);
  }
}

}  // namespace
}  // namespace meteo::core
