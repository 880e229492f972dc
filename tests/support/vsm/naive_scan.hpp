#pragma once

/// \file naive_scan.hpp
/// Retained naive-scan reference for LocalIndex (DESIGN.md §9).
///
/// This is the pre-inverted-index implementation, kept verbatim as the
/// correctness oracle: every LocalIndex kernel must return byte-identical
/// `ScoredItem`/`ItemId` sequences to this scan (same floating-point
/// summation order, same tie-breaks, same ordering). The randomized churn
/// test (tests/vsm/local_index_oracle_test.cpp) drives both side by side,
/// and the BM_LocalIndexNaive* microbenches use it as the reference row
/// the benchmark gate (tools/bench_gate.py) divides the index's speed
/// by. It lives in tests/support (the
/// `meteo_test_support` target), not in the library: nothing in src/
/// uses it.

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "vsm/local_index.hpp"
#include "vsm/sparse_vector.hpp"
#include "vsm/types.hpp"

namespace meteo::vsm {

/// The seed LocalIndex: a flat item array scanned end-to-end with a
/// merge-based cosine per item. O(items × (nnz_item + nnz_query)) per
/// query — the complexity the inverted index exists to beat.
class NaiveScanIndex {
 public:
  void insert(ItemId id, SparseVector vector) {
    METEO_EXPECTS(!vector.empty());
    const auto it = positions_.find(id);
    if (it != positions_.end()) {
      items_[it->second].vector = std::move(vector);
      return;
    }
    positions_.emplace(id, items_.size());
    items_.push_back(StoredItem{id, std::move(vector)});
  }

  bool erase(ItemId id) {
    const auto it = positions_.find(id);
    if (it == positions_.end()) return false;
    const std::size_t pos = it->second;
    positions_.erase(it);
    if (pos != items_.size() - 1) {
      items_[pos] = std::move(items_.back());
      positions_[items_[pos].id] = pos;
    }
    items_.pop_back();
    return true;
  }

  [[nodiscard]] bool contains(ItemId id) const noexcept {
    return positions_.contains(id);
  }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

  [[nodiscard]] const SparseVector* vector_of(ItemId id) const noexcept {
    const auto it = positions_.find(id);
    if (it == positions_.end()) return nullptr;
    return &items_[it->second].vector;
  }

  std::optional<StoredItem> evict_least_similar(const SparseVector& reference) {
    if (items_.empty()) return std::nullopt;
    std::size_t worst = 0;
    double worst_score = 2.0;  // above any cosine
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double score = cosine_similarity(reference, items_[i].vector);
      if (score < worst_score ||
          (score == worst_score && items_[i].id < items_[worst].id)) {
        worst = i;
        worst_score = score;
      }
    }
    StoredItem evicted = std::move(items_[worst]);
    positions_.erase(evicted.id);
    if (worst != items_.size() - 1) {
      items_[worst] = std::move(items_.back());
      positions_[items_[worst].id] = worst;
    }
    items_.pop_back();
    return evicted;
  }

  [[nodiscard]] std::vector<ScoredItem> top_k(const SparseVector& query,
                                              std::size_t k) const {
    std::vector<ScoredItem> scored;
    scored.reserve(items_.size());
    for (const StoredItem& item : items_) {
      scored.push_back(
          ScoredItem{item.id, cosine_similarity(query, item.vector)});
    }
    const std::size_t take = std::min(k, scored.size());
    std::partial_sort(scored.begin(),
                      scored.begin() + static_cast<std::ptrdiff_t>(take),
                      scored.end(),
                      [](const ScoredItem& a, const ScoredItem& b) {
                        if (a.score != b.score) return a.score > b.score;
                        return a.id < b.id;
                      });
    scored.resize(take);
    return scored;
  }

  [[nodiscard]] std::vector<ItemId> match_all(
      std::span<const KeywordId> keywords) const {
    std::vector<ItemId> out;
    for (const StoredItem& item : items_) {
      const bool all =
          std::all_of(keywords.begin(), keywords.end(),
                      [&](KeywordId k) { return item.vector.contains(k); });
      if (all) out.push_back(item.id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::vector<ItemId> match_any(
      std::span<const KeywordId> keywords) const {
    std::vector<ItemId> out;
    for (const StoredItem& item : items_) {
      const bool any =
          std::any_of(keywords.begin(), keywords.end(),
                      [&](KeywordId k) { return item.vector.contains(k); });
      if (any) out.push_back(item.id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::vector<ScoredItem> within_angle(const SparseVector& query,
                                                     double tau) const {
    METEO_EXPECTS(tau >= 0.0);
    // cos(pi/2) is ~6e-17 rather than 0; the epsilon keeps boundary angles
    // (exactly tau) inside the result set.
    const double min_cosine = std::cos(tau) - 1e-12;
    std::vector<ScoredItem> out;
    for (const StoredItem& item : items_) {
      const double score = cosine_similarity(query, item.vector);
      if (score >= min_cosine) out.push_back(ScoredItem{item.id, score});
    }
    std::sort(out.begin(), out.end(),
              [](const ScoredItem& a, const ScoredItem& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    return out;
  }

 private:
  std::vector<StoredItem> items_;
  std::unordered_map<ItemId, std::size_t> positions_;
};

}  // namespace meteo::vsm
