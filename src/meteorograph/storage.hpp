#pragma once

/// \file storage.hpp
/// Per-node item storage ordered by raw angle key, supporting the three
/// eviction policies of the publish overflow path (Fig. 2 step 3).
///
/// Keeping items sorted by their raw (Eq. 5) key makes the default
/// farthest-angle eviction O(log c) and gives the walk-based retrieval a
/// natural invariant: after any publish sequence every node holds a
/// contiguous band of the global angle order (its own band plus overflow
/// spill from neighbors).
///
/// The vectors themselves live in an embedded `vsm::LocalIndex` — the
/// inverted postings engine of DESIGN.md §9 — so the similarity kernels
/// (`top_k`, `match_all`) run sub-linearly in the store size and the
/// key-ordered multimap only carries item ids, never a second copy of
/// the vectors.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "meteorograph/config.hpp"
#include "overlay/key_space.hpp"
#include "vsm/local_index.hpp"
#include "vsm/lsi.hpp"
#include "vsm/sparse_vector.hpp"
#include "vsm/types.hpp"

namespace meteo::core {

struct StoredEntry {
  vsm::ItemId id = 0;
  overlay::Key raw_key = 0;  // Eq. 5 key (angle order)
  vsm::SparseVector vector;
};

/// Which side of the node's band an eviction came from — the direction the
/// evicted item should chain toward.
enum class EvictSide {
  kLow,   // toward the predecessor (smaller keys)
  kHigh,  // toward the successor (larger keys)
};

struct Eviction {
  StoredEntry entry;
  EvictSide side = EvictSide::kHigh;
};

class AngleStore {
 public:
  /// Inserts an entry (replaces an existing item with the same id).
  void insert(StoredEntry entry);

  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }
  [[nodiscard]] bool contains(vsm::ItemId id) const noexcept {
    return index_.contains(id);
  }

  /// The stored vector of `id`, or nullptr.
  [[nodiscard]] const vsm::SparseVector* vector_of(vsm::ItemId id) const;

  bool erase(vsm::ItemId id);

  /// Removes one entry according to `policy`:
  ///  - kFarthestAngle: the end of the key-sorted band farther from
  ///    `incoming`'s raw key; side reports which end.
  ///  - kLeastSimilarCosine: lowest cosine to `incoming`'s vector; side is
  ///    the evictee's position relative to `incoming`'s raw key.
  ///  - kFifo: oldest insertion; side relative to `incoming`'s raw key.
  /// \pre !empty()
  [[nodiscard]] Eviction evict(const StoredEntry& incoming,
                               EvictionPolicy policy);

  /// Top-k by cosine to `query`, descending (score ties toward smaller id).
  [[nodiscard]] std::vector<vsm::ScoredItem> top_k(
      const vsm::SparseVector& query, std::size_t k) const;

  /// Caller-buffer overload (clears and refills `out`, reusing capacity).
  void top_k(const vsm::SparseVector& query, std::size_t k,
             std::vector<vsm::ScoredItem>& out) const;

  /// Top-k by latent-space cosine (§3.3's LSI option). The per-node LSI
  /// model is built lazily and cached until the store mutates; `seed`
  /// makes the randomized SVD deterministic.
  [[nodiscard]] std::vector<vsm::ScoredItem> top_k_lsi(
      const vsm::SparseVector& query, std::size_t k, std::size_t rank,
      std::uint64_t seed) const;

  /// Items containing every keyword of `keywords`, ascending id.
  [[nodiscard]] std::vector<vsm::ItemId> match_all(
      std::span<const vsm::KeywordId> keywords) const;
  void match_all(std::span<const vsm::KeywordId> keywords,
                 std::vector<vsm::ItemId>& out) const;

  /// Iterates all entries (angle order). The StoredEntry passed to `fn`
  /// is a per-call temporary (its vector is copied out of the index).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, id] : by_key_) {
      fn(StoredEntry{id, key, *index_.vector_of(id)});
    }
  }

  /// Smallest/largest raw key stored. \pre !empty()
  [[nodiscard]] overlay::Key min_raw_key() const;
  [[nodiscard]] overlay::Key max_raw_key() const;

  // --- epoch-stamped views (DESIGN.md §11) --------------------------------
  // The key-ordered map and metadata always track the *latest* state (the
  // write path — evict chains, min/max keys — never reads a pinned view);
  // only the embedded vector index versions its contents.

  void set_write_epoch(vsm::Epoch e) noexcept { index_.set_write_epoch(e); }
  void retain_versions(bool on) noexcept { index_.retain_versions(on); }
  void gc() { index_.gc(); }

  [[nodiscard]] bool contains_at(vsm::ItemId id,
                                 vsm::Epoch at) const noexcept {
    return index_.contains_at(id, at);
  }
  [[nodiscard]] bool empty_at(vsm::Epoch at) const noexcept {
    return index_.empty_at(at);
  }
  void top_k_at(const vsm::SparseVector& query, std::size_t k, vsm::Epoch at,
                std::vector<vsm::ScoredItem>& out) const {
    index_.top_k_at(query, k, at, out);
  }
  void match_all_at(std::span<const vsm::KeywordId> keywords, vsm::Epoch at,
                    std::vector<vsm::ItemId>& out) const {
    index_.match_all_at(keywords, at, out);
  }

 private:
  using KeyMap = std::multimap<overlay::Key, vsm::ItemId>;

  struct Meta {
    KeyMap::iterator pos;        ///< the item's slot in angle order
    std::uint64_t order = 0;     ///< insertion sequence (kFifo)
  };

  void invalidate_lsi() noexcept { ++version_; }

  /// Removes `id` from the key map and metadata (not the vector index).
  void detach(vsm::ItemId id);

  KeyMap by_key_;
  std::unordered_map<vsm::ItemId, Meta> meta_;
  vsm::LocalIndex index_;  ///< owns the vectors + inverted postings
  std::uint64_t next_order_ = 0;

  /// LSI cache: rebuilt when the store version moves past the cached one.
  std::uint64_t version_ = 0;
  mutable std::uint64_t lsi_version_ = ~std::uint64_t{0};
  mutable std::size_t lsi_rank_ = 0;
  mutable std::optional<vsm::LsiModel> lsi_model_;
};

/// Per-node replica copies (§3.6) in one id-ordered map, versioned like
/// the other node stores (DESIGN.md §11): every copy carries a Stamp, and
/// while retention is armed an erase or overwrite only stamps the old
/// copy's `removed` epoch (a tombstone) and appends the new one after it,
/// so a reader pinned at an older epoch still finds it; gc() drops the
/// tombstones. With retention off this is a plain id-ordered map.
class ReplicaStore {
 public:
  /// Inserts or overwrites the copy for `id` (std::map::insert_or_assign).
  void insert_or_assign(vsm::ItemId id, const vsm::SparseVector& vector) {
    (void)erase(id);
    copies_.emplace(id, Copy{vector, vsm::Stamp{write_epoch_}});
  }

  /// Inserts only when absent (std::map::emplace). Returns true on insert.
  bool emplace(vsm::ItemId id, vsm::SparseVector vector) {
    if (find_live(id) != copies_.end()) return false;
    copies_.emplace(id, Copy{std::move(vector), vsm::Stamp{write_epoch_}});
    return true;
  }

  /// Removes the copy for `id`; returns the number removed (0 or 1).
  std::size_t erase(vsm::ItemId id) {
    const auto it = find_live(id);
    if (it == copies_.end()) return 0;
    if (retain_) {
      it->second.stamp.removed = write_epoch_;
      ++tombstones_;
    } else {
      copies_.erase(it);
    }
    return 1;
  }

  [[nodiscard]] bool contains(vsm::ItemId id) const {
    return contains_at(id, vsm::kEpochLatest);
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return copies_.size() - tombstones_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Moves every live copy out in id order (handing off to surviving
  /// nodes on depart), leaving the store empty.
  [[nodiscard]] std::vector<std::pair<vsm::ItemId, vsm::SparseVector>>
  take_all() {
    std::vector<std::pair<vsm::ItemId, vsm::SparseVector>> out;
    out.reserve(size());
    for (auto& [id, copy] : copies_) {
      if (copy.stamp.live()) out.emplace_back(id, std::move(copy.vector));
    }
    copies_.clear();
    tombstones_ = 0;
    return out;
  }

  void set_write_epoch(vsm::Epoch e) noexcept { write_epoch_ = e; }
  void retain_versions(bool on) noexcept { retain_ = on; }
  void gc() {
    if (tombstones_ == 0) return;
    std::erase_if(copies_,
                  [](const auto& kv) { return !kv.second.stamp.live(); });
    tombstones_ = 0;
  }

  [[nodiscard]] bool contains_at(vsm::ItemId id, vsm::Epoch at) const {
    const auto [lo, hi] = copies_.equal_range(id);
    return std::any_of(lo, hi, [at](const auto& kv) {
      return kv.second.stamp.visible_at(at);
    });
  }

  /// Id-ordered iteration over the copies visible at epoch `at`;
  /// `fn(id, vector)` returns false to stop early. At most one version of
  /// an id is visible at any epoch, so this is the sequence the plain map
  /// held at epoch `at`.
  template <typename Fn>
  void for_each_at(vsm::Epoch at, Fn&& fn) const {
    for (const auto& [id, copy] : copies_) {
      if (copy.stamp.visible_at(at) && !fn(id, copy.vector)) return;
    }
  }

 private:
  struct Copy {
    vsm::SparseVector vector;
    vsm::Stamp stamp;
  };
  /// Versions of one id sit together in insertion order; at most one of
  /// them is live.
  using Copies = std::multimap<vsm::ItemId, Copy>;

  [[nodiscard]] Copies::iterator find_live(vsm::ItemId id) {
    const auto [lo, hi] = copies_.equal_range(id);
    const auto it = std::find_if(
        lo, hi, [](const auto& kv) { return kv.second.stamp.live(); });
    return it != hi ? it : copies_.end();
  }

  Copies copies_;
  std::size_t tombstones_ = 0;  ///< copies with a `removed` stamp
  vsm::Epoch write_epoch_ = 0;
  bool retain_ = false;
};

}  // namespace meteo::core
