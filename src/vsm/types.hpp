#pragma once

/// \file types.hpp
/// Core identifier types of the vector space model layer.

#include <cstdint>

namespace meteo::vsm {

/// Index of a keyword (dimension) in the dictionary. The paper's keywords
/// are the World Cup trace's web objects (~89K of them).
using KeywordId = std::uint32_t;

/// Identifier of a published item (the trace's clients, ~2,760K of them).
using ItemId = std::uint64_t;

inline constexpr KeywordId kInvalidKeyword = ~KeywordId{0};

/// Epoch counter for snapshot-isolated reads (DESIGN.md §11).
using Epoch = std::uint64_t;

/// "Removed" stamp of a version that is still live.
inline constexpr Epoch kEpochNever = ~Epoch{0};

/// Pseudo-epoch meaning "read the latest state": above every real epoch,
/// so exactly the versions not yet removed are visible at it.
inline constexpr Epoch kEpochLatest = ~Epoch{0} - 1;

/// The lifetime of one stored version, stamped in place on its slot by
/// every versioned node store (DESIGN.md §11).
struct Stamp {
  Epoch added = 0;
  Epoch removed = kEpochNever;

  /// The one visibility rule: a version is visible at epoch `at` when
  /// `added <= at < removed`.
  [[nodiscard]] constexpr bool visible_at(Epoch at) const noexcept {
    return added <= at && at < removed;
  }
  /// Not yet removed (tombstoned or unlinked).
  [[nodiscard]] constexpr bool live() const noexcept {
    return removed == kEpochNever;
  }
};

}  // namespace meteo::vsm
