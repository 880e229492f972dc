#pragma once

/// \file directory.hpp
/// Directory pointers (paper §3.5.2).
///
/// With Eq. 6 in force, items are spread nearly uniformly over the key
/// space, so similar items no longer sit on adjacent nodes. Meteorograph
/// restores similarity locality with a level of indirection: alongside the
/// item (stored at its Eq. 6 key), a small *pointer* is published at the
/// item's raw Eq. 5 key. Pointers of similar items therefore cluster, and
/// a similarity search walks the pointer space, chasing each matching
/// pointer to the node holding the item.

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/key_space.hpp"
#include "vsm/types.hpp"

namespace meteo::core {

struct DirectoryPointer {
  vsm::ItemId item = 0;
  /// Where the item itself lives: its Eq. 6 (balanced) key.
  overlay::Key item_key = 0;
  /// The keywords characterizing the item (sorted), used for matching.
  std::vector<vsm::KeywordId> keywords;

  /// True when the pointer's item contains every keyword of `query`.
  [[nodiscard]] bool matches(std::span<const vsm::KeywordId> query) const {
    return std::all_of(query.begin(), query.end(), [&](vsm::KeywordId k) {
      return std::binary_search(keywords.begin(), keywords.end(), k);
    });
  }
};

/// Keyword-indexed container for one node's directory pointers
/// (DESIGN.md §9). Pointers live in append-only *slots*, so a slot id is
/// the pointer's publication order — searches chase pointers in that
/// order, which the determinism goldens pin down — and `candidates()`
/// returns, in the same order, the slots of pointers carrying a given
/// keyword, so a search probes one bucket instead of scanning the node's
/// whole directory on every visit.
///
/// Withdrawals never rebuild the index: a removed pointer is unlinked from
/// the buckets of its own keywords and leaves a hole in the slot array.
/// Holes are compacted once they outnumber the other slots, which keeps
/// the upkeep amortised O(keywords) per removed pointer; compaction
/// renumbers slots monotonically, so every bucket keeps its order.
class DirectoryStore {
 public:
  void add(DirectoryPointer pointer) {
    const std::size_t slot = pointers_.size();
    for (const vsm::KeywordId kw : pointer.keywords) {
      by_keyword_[kw].push_back(slot);
    }
    link_live(pointer.item, slot);
    pointers_.push_back(std::move(pointer));
    stamps_.push_back(vsm::Stamp{write_epoch_});
  }

  /// Removes the first live pointer for `item` in publication order (if
  /// present); item ids may repeat on republish. While version retention
  /// is armed (DESIGN.md §11) the pointer is tombstoned in place — it
  /// stays in its buckets for readers pinned at an older epoch — and
  /// gc() unlinks it at the epoch boundary. Otherwise it is unlinked
  /// right away.
  bool remove(vsm::ItemId item) {
    const auto it = first_live_.find(item);
    if (it == first_live_.end()) return false;
    const std::size_t slot = it->second;
    if (next_live_[slot] == kNoSlot) {
      first_live_.erase(it);
    } else {
      it->second = next_live_[slot];
      next_live_[slot] = kNoSlot;
    }
    if (retain_) {
      stamps_[slot].removed = write_epoch_;
      tombstoned_.push_back(slot);
    } else {
      unlink(slot);
      compact_if_sparse();
    }
    return true;
  }

  /// The slot array `candidates()` indexes into. Unlinked slots (holes)
  /// are never returned by `candidates()` and carry no keywords.
  [[nodiscard]] const std::vector<DirectoryPointer>& all() const noexcept {
    return pointers_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return pointers_.size() - holes_ - tombstoned_.size();
  }

  /// Is pointers_[index] part of the epoch-`at` view? At kEpochLatest
  /// that is every linked pointer not tombstoned.
  [[nodiscard]] bool visible_at(std::size_t index,
                                vsm::Epoch at) const noexcept {
    return stamps_[index].visible_at(at);
  }

  void set_write_epoch(vsm::Epoch e) noexcept { write_epoch_ = e; }
  void retain_versions(bool on) noexcept { retain_ = on; }

  /// Unlinks this epoch's tombstones from their buckets. Survivors keep
  /// their slots, so every bucket lists the same pointers in the same
  /// order as after sequential one-at-a-time removals.
  void gc() {
    if (tombstoned_.empty()) return;
    for (const std::size_t slot : tombstoned_) unlink(slot);
    tombstoned_.clear();
    compact_if_sparse();
  }

  /// Slots (in publication order) of pointers whose keyword list contains
  /// `keyword`; empty when no pointer on this node carries it — the
  /// common case, since pointers for a keyword cluster near the raw keys
  /// of the vectors containing it.
  [[nodiscard]] std::span<const std::size_t> candidates(
      vsm::KeywordId keyword) const {
    const auto it = by_keyword_.find(keyword);
    if (it == by_keyword_.end()) return {};
    return it->second;
  }

  /// Moves every live pointer out in publication order (handing off to
  /// surviving nodes on depart), leaving the store empty. Tombstoned
  /// pointers are dropped: their items were withdrawn this epoch, and the
  /// depart fence guarantees no reader still pins the epoch that could
  /// see them.
  [[nodiscard]] std::vector<DirectoryPointer> take_all() {
    std::vector<DirectoryPointer> out;
    out.reserve(size());
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].live()) {
        out.push_back(std::move(pointers_[i]));
      }
    }
    pointers_.clear();
    stamps_.clear();
    next_live_.clear();
    by_keyword_.clear();
    first_live_.clear();
    tombstoned_.clear();
    holes_ = 0;
    return out;
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};
  /// `Stamp::added` of an unlinked slot.
  static constexpr vsm::Epoch kHole = vsm::kEpochNever;

  /// Appends `slot` to the publication-ordered chain of `item`'s live
  /// slots (duplicates are rare, so the walk to the tail is short).
  void link_live(vsm::ItemId item, std::size_t slot) {
    next_live_.push_back(kNoSlot);
    const auto [it, fresh] = first_live_.try_emplace(item, slot);
    if (fresh) return;
    std::size_t tail = it->second;
    while (next_live_[tail] != kNoSlot) tail = next_live_[tail];
    next_live_[tail] = slot;
  }

  /// Takes `slot` out of the buckets of its keywords and frees them; the
  /// slot stays behind as a hole.
  void unlink(std::size_t slot) {
    DirectoryPointer& pointer = pointers_[slot];
    for (const vsm::KeywordId kw : pointer.keywords) {
      const auto it = by_keyword_.find(kw);
      std::vector<std::size_t>& bucket = it->second;
      bucket.erase(std::lower_bound(bucket.begin(), bucket.end(), slot));
      if (bucket.empty()) by_keyword_.erase(it);
    }
    std::vector<vsm::KeywordId>().swap(pointer.keywords);
    stamps_[slot] = vsm::Stamp{kHole, 0};  // visible at no epoch
    ++holes_;
  }

  /// Squeezes the holes out once they outnumber the other slots, so the
  /// O(slots + bucket entries) pass is paid for by at least as many
  /// removals. The renumbering is monotone, so buckets, chains and the
  /// tombstone list keep their order.
  void compact_if_sparse() {
    if (holes_ <= pointers_.size() - holes_) return;
    std::vector<std::size_t> remap(pointers_.size(), kNoSlot);
    std::size_t w = 0;
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].added == kHole) continue;
      remap[i] = w;
      if (w != i) {
        pointers_[w] = std::move(pointers_[i]);
        stamps_[w] = stamps_[i];
        next_live_[w] = next_live_[i];
      }
      ++w;
    }
    pointers_.resize(w);
    stamps_.resize(w);
    next_live_.resize(w);
    holes_ = 0;
    for (std::size_t& next : next_live_) {
      if (next != kNoSlot) next = remap[next];
    }
    for (std::size_t& slot : tombstoned_) slot = remap[slot];
    // meteo-lint: order-insensitive(per-entry monotone remap)
    for (auto& [kw, bucket] : by_keyword_) {
      for (std::size_t& slot : bucket) slot = remap[slot];
    }
    // meteo-lint: order-insensitive(per-entry monotone remap)
    for (auto& [item, head] : first_live_) head = remap[head];
  }

  std::vector<DirectoryPointer> pointers_;  ///< slots, publication order
  std::vector<vsm::Stamp> stamps_;          ///< parallel to pointers_
  /// Parallel to pointers_: the next live slot of the same item, so
  /// `first_live_` plus these links list each item's live slots in order.
  std::vector<std::size_t> next_live_;
  std::unordered_map<vsm::KeywordId, std::vector<std::size_t>> by_keyword_;
  /// Item -> its first live (linked, not tombstoned) slot.
  std::unordered_map<vsm::ItemId, std::size_t> first_live_;
  /// Slots tombstoned under retention, still linked, awaiting gc().
  std::vector<std::size_t> tombstoned_;
  std::size_t holes_ = 0;
  vsm::Epoch write_epoch_ = 0;
  bool retain_ = false;
};

}  // namespace meteo::core
