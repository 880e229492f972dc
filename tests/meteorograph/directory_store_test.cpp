/// Oracle test for the incremental directory index (DESIGN.md §9): the
/// production `DirectoryStore` — append-only slots, removals unlinked
/// from the buckets of their own keywords, holes compacted on an
/// amortised rule — must be observably identical to the original store,
/// which erased in place and rebuilt the whole keyword index on every
/// removal and gc. ReferenceDirectory below is that original
/// implementation, transplanted from the pre-change source; seeded random
/// sequences of adds (duplicate ids included), removals, retention
/// windows, gc and take_all drive both, and after every step the test
/// compares everything a caller can observe: each keyword's candidate
/// sequence, its visibility at every pinned epoch, size/empty and the
/// take_all hand-off order.

#include "meteorograph/directory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

namespace meteo::core {
namespace {

// ---------------------------------------------------------------------------
// ReferenceDirectory: the original erase-and-reindex store.
// ---------------------------------------------------------------------------

class ReferenceDirectory {
 public:
  void add(DirectoryPointer pointer) {
    const std::size_t index = pointers_.size();
    for (const vsm::KeywordId kw : pointer.keywords) {
      by_keyword_[kw].push_back(index);
    }
    pointers_.push_back(std::move(pointer));
    stamps_.push_back(Stamp{write_epoch_, vsm::kEpochNever});
  }

  bool remove(vsm::ItemId item) {
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (pointers_[i].item != item) continue;
      if (stamps_[i].removed != vsm::kEpochNever) continue;  // tombstone
      if (retain_) {
        stamps_[i].removed = write_epoch_;
        ++tombstones_;
      } else {
        pointers_.erase(pointers_.begin() + static_cast<std::ptrdiff_t>(i));
        stamps_.erase(stamps_.begin() + static_cast<std::ptrdiff_t>(i));
        reindex();
      }
      return true;
    }
    return false;
  }

  [[nodiscard]] const std::vector<DirectoryPointer>& all() const noexcept {
    return pointers_;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::size_t size() const noexcept {
    return pointers_.size() - tombstones_;
  }

  [[nodiscard]] bool visible_at(std::size_t index,
                                vsm::Epoch at) const noexcept {
    const Stamp& s = stamps_[index];
    if (at == vsm::kEpochLatest) return s.removed == vsm::kEpochNever;
    return s.added <= at && at < s.removed;
  }

  void set_write_epoch(vsm::Epoch e) noexcept { write_epoch_ = e; }
  void retain_versions(bool on) noexcept { retain_ = on; }

  void gc() {
    if (tombstones_ == 0) return;
    std::size_t w = 0;
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].removed != vsm::kEpochNever) continue;
      if (w != i) {
        pointers_[w] = std::move(pointers_[i]);
        stamps_[w] = stamps_[i];
      }
      ++w;
    }
    pointers_.resize(w);
    stamps_.resize(w);
    tombstones_ = 0;
    reindex();
  }

  [[nodiscard]] std::span<const std::size_t> candidates(
      vsm::KeywordId keyword) const {
    const auto it = by_keyword_.find(keyword);
    if (it == by_keyword_.end()) return {};
    return it->second;
  }

  [[nodiscard]] std::vector<DirectoryPointer> take_all() {
    by_keyword_.clear();
    std::vector<DirectoryPointer> out;
    out.reserve(size());
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      if (stamps_[i].removed == vsm::kEpochNever) {
        out.push_back(std::move(pointers_[i]));
      }
    }
    pointers_.clear();
    stamps_.clear();
    tombstones_ = 0;
    return out;
  }

 private:
  struct Stamp {
    vsm::Epoch added = 0;
    vsm::Epoch removed = vsm::kEpochNever;
  };

  void reindex() {
    by_keyword_.clear();
    for (std::size_t i = 0; i < pointers_.size(); ++i) {
      for (const vsm::KeywordId kw : pointers_[i].keywords) {
        by_keyword_[kw].push_back(i);
      }
    }
  }

  std::vector<DirectoryPointer> pointers_;
  std::vector<Stamp> stamps_;
  std::unordered_map<vsm::KeywordId, std::vector<std::size_t>> by_keyword_;
  std::size_t tombstones_ = 0;
  vsm::Epoch write_epoch_ = 0;
  bool retain_ = false;
};

// ---------------------------------------------------------------------------
// Transcripts
// ---------------------------------------------------------------------------

constexpr vsm::KeywordId kKeywords = 24;
constexpr vsm::ItemId kItemIds = 48;  // small, so republished ids repeat

/// One flat transcript of a pointer: item, balanced key, keywords.
void append_pointer(const DirectoryPointer& p,
                    std::vector<std::uint64_t>& out) {
  out.push_back(p.item);
  out.push_back(p.item_key);
  out.push_back(p.keywords.size());
  out.insert(out.end(), p.keywords.begin(), p.keywords.end());
}

/// `keyword`'s candidate sequence, each pointer followed by its
/// visibility at every epoch of `ats`.
template <typename Store>
std::vector<std::uint64_t> bucket_transcript(const Store& store,
                                             vsm::KeywordId keyword,
                                             std::span<const vsm::Epoch> ats) {
  std::vector<std::uint64_t> out;
  for (const std::size_t slot : store.candidates(keyword)) {
    append_pointer(store.all()[slot], out);
    for (const vsm::Epoch at : ats) out.push_back(store.visible_at(slot, at));
  }
  return out;
}

std::vector<std::uint64_t> flatten(const std::vector<DirectoryPointer>& ps) {
  std::vector<std::uint64_t> out;
  for (const DirectoryPointer& p : ps) append_pointer(p, out);
  return out;
}

DirectoryPointer random_pointer(Rng& rng) {
  DirectoryPointer p;
  p.item = rng.below(kItemIds);
  p.item_key = rng();
  const std::size_t n = 1 + rng.below(6);
  while (p.keywords.size() < n) {
    const auto kw = static_cast<vsm::KeywordId>(rng.below(kKeywords));
    if (std::find(p.keywords.begin(), p.keywords.end(), kw) ==
        p.keywords.end()) {
      p.keywords.push_back(kw);
    }
  }
  std::sort(p.keywords.begin(), p.keywords.end());
  return p;
}

/// Drives both stores through the same operations, as the epoch engine
/// and the facade do: facade steps with retention off, retention windows
/// that tombstone and gc at the boundary, occasional disarm, depart
/// hand-offs through take_all.
class Lockstep {
 public:
  explicit Lockstep(std::uint64_t seed) : rng_(seed) {}

  void add() {
    const DirectoryPointer p = random_pointer(rng_);
    store_.add(p);
    ref_.add(p);
  }

  void remove() {
    // Mostly ids that are (or were) present, sometimes absent ones.
    vsm::ItemId item = rng_.below(kItemIds);
    if (!ref_.all().empty() && rng_.chance(0.8)) {
      item = ref_.all()[rng_.below(ref_.all().size())].item;
    }
    const bool removed = store_.remove(item);
    ASSERT_EQ(removed, ref_.remove(item)) << "item " << item;
    if (removed) ++removals_;
  }

  void arm() {
    retain_ = true;
    for_both([&](auto& s) {
      s.retain_versions(true);
      s.set_write_epoch(committed_ + 1);
    });
  }

  /// Epoch boundary: gc to the committed epoch, as gc_stores() does.
  void advance() {
    for_both([](auto& s) { s.gc(); });
    ++committed_;
  }

  void disarm() {
    retain_ = false;
    for_both([](auto& s) {
      s.retain_versions(false);
      s.set_write_epoch(0);
      s.gc();
    });
  }

  /// Retention off with tombstones still pending: the next removals
  /// unlink (and may compact) while older tombstones wait for gc().
  void drop_retention_only() {
    retain_ = false;
    for_both([](auto& s) { s.retain_versions(false); });
  }

  void take_all_and_readd() {
    const std::vector<DirectoryPointer> got = store_.take_all();
    const std::vector<DirectoryPointer> want = ref_.take_all();
    ASSERT_EQ(flatten(got), flatten(want));
    EXPECT_TRUE(store_.empty());
    EXPECT_TRUE(store_.candidates(0).empty());
    // Hand the pointers back in order, like a depart re-publishing them
    // on the surviving node.
    for (const DirectoryPointer& p : got) {
      store_.add(p);
      ref_.add(p);
    }
  }

  void check(const char* where) {
    ASSERT_EQ(store_.size(), ref_.size()) << where;
    ASSERT_EQ(store_.empty(), ref_.empty()) << where;
    // The latest view, the pinned epoch and its neighbours (the window
    // being written, the one before), and the first epoch.
    const vsm::Epoch before = committed_ > 0 ? committed_ - 1 : 0;
    const std::vector<vsm::Epoch> ats{vsm::kEpochLatest, 0, before,
                                      committed_, committed_ + 1};
    for (vsm::KeywordId kw = 0; kw < kKeywords; ++kw) {
      ASSERT_EQ(bucket_transcript(store_, kw, ats),
                bucket_transcript(ref_, kw, ats))
          << where << ", keyword " << kw;
    }
    if (store_.all().size() < slots_seen_) ++compactions_;
    slots_seen_ = store_.all().size();
  }

  [[nodiscard]] bool retaining() const noexcept { return retain_; }
  [[nodiscard]] std::size_t size() const noexcept { return ref_.size(); }
  [[nodiscard]] std::size_t removals() const noexcept { return removals_; }
  /// Times the production slot array shrank outside take_all.
  [[nodiscard]] std::size_t compactions() const noexcept {
    return compactions_;
  }
  void note_take_all() noexcept { slots_seen_ = store_.all().size(); }
  Rng& rng() noexcept { return rng_; }

 private:
  template <typename F>
  void for_both(F f) {
    f(store_);
    f(ref_);
  }

  Rng rng_;
  DirectoryStore store_;
  ReferenceDirectory ref_;
  vsm::Epoch committed_ = 0;
  bool retain_ = false;
  std::size_t removals_ = 0;
  std::size_t slots_seen_ = 0;
  std::size_t compactions_ = 0;
};

/// Alternating grow and shrink phases keep the store crossing the
/// compaction threshold; each step is one random operation.
void run_schedule(std::uint64_t seed, std::size_t steps) {
  Lockstep h(seed);
  Rng& rng = h.rng();
  bool growing = true;
  for (std::size_t step = 0; step < steps; ++step) {
    if (h.size() > 40) growing = false;
    if (h.size() < 4) growing = true;
    const double roll = rng.uniform();
    if (roll < 0.55) {
      if (growing || rng.chance(0.3)) {
        h.add();
      } else {
        h.remove();
      }
    } else if (roll < 0.85) {
      if (!growing || rng.chance(0.3)) {
        h.remove();
      } else {
        h.add();
      }
    } else if (roll < 0.93) {
      if (h.retaining()) {
        h.advance();
      } else {
        h.arm();
      }
    } else if (roll < 0.96) {
      h.disarm();
    } else if (roll < 0.98) {
      h.drop_retention_only();
    } else {
      h.take_all_and_readd();
      h.note_take_all();
    }
    if (::testing::Test::HasFatalFailure()) return;
    h.check("after step");
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "seed " << seed << ", step " << step;
      return;
    }
  }
  h.disarm();
  h.check("after final disarm");
  EXPECT_GT(h.removals(), steps / 5) << "seed " << seed;
  EXPECT_GE(h.compactions(), 5u) << "seed " << seed;
}

TEST(DirectoryStoreOracle, RandomSequencesMatchReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_schedule(seed, 2000);
    if (HasFatalFailure() || HasFailure()) return;
  }
}

TEST(DirectoryStoreOracle, RemoveTakesFirstLiveDuplicate) {
  DirectoryStore store;
  store.add(DirectoryPointer{7, 100, {1, 2}});
  store.add(DirectoryPointer{7, 200, {2, 3}});
  store.add(DirectoryPointer{7, 300, {2}});
  store.retain_versions(true);
  store.set_write_epoch(1);
  ASSERT_TRUE(store.remove(7));  // tombstones the first
  ASSERT_TRUE(store.remove(7));  // then the next live one
  EXPECT_EQ(store.size(), 1u);
  // Pinned at epoch 0 all three are visible; at epoch 1 only the third.
  std::vector<overlay::Key> at0;
  std::vector<overlay::Key> at1;
  for (const std::size_t slot : store.candidates(2)) {
    if (store.visible_at(slot, 0)) at0.push_back(store.all()[slot].item_key);
    if (store.visible_at(slot, 1)) at1.push_back(store.all()[slot].item_key);
  }
  EXPECT_EQ(at0, (std::vector<overlay::Key>{100, 200, 300}));
  EXPECT_EQ(at1, (std::vector<overlay::Key>{300}));
  store.gc();
  ASSERT_EQ(store.candidates(2).size(), 1u);
  EXPECT_EQ(store.all()[store.candidates(2)[0]].item_key, 300u);
  EXPECT_TRUE(store.candidates(1).empty());
  EXPECT_TRUE(store.candidates(3).empty());
  store.retain_versions(false);
  ASSERT_TRUE(store.remove(7));
  EXPECT_FALSE(store.remove(7));
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.candidates(2).empty());
}

}  // namespace
}  // namespace meteo::core
