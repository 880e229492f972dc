#pragma once

/// \file names.hpp
/// The metric-name schema: every metric and label key the library emits.
///
/// All instrumentation sites reference these constants instead of string
/// literals, which makes the schema greppable and lets CI enforce the
/// documentation contract: tools/check_docs.sh extracts every quoted
/// string from this header and fails if any of them is missing from
/// docs/OBSERVABILITY.md. Add a metric here, document it there — or
/// tier-1 fails.

namespace meteo::obs::names {

// ---- label keys -----------------------------------------------------------

/// Which core operation a series belongs to. Values are the OpKind
/// strings: "publish", "retrieve", "locate", "search", "range_publish",
/// "range_search", "withdraw", "subscribe", "depart".
inline constexpr const char* kLabelOp = "op";

/// How the operation ended. Values: "ok", "partial", "degraded",
/// "blocked", "failed".
inline constexpr const char* kLabelOutcome = "outcome";

// ---- per-operation counters (labelled) ------------------------------------

/// Completed operations, one increment per op. Labels: op, outcome.
inline constexpr const char* kOpCount = "op.count";

/// Overlay messages charged to the operation (route hops + walk hops +
/// retries + lookup legs). Labels: op. Unit: messages.
inline constexpr const char* kOpMessages = "op.messages";

// ---- per-operation histograms (labelled with op) --------------------------

/// DHT routing hops per operation (all route legs summed). Labels: op.
inline constexpr const char* kOpRouteHops = "op.route_hops";

/// Neighbor-walk hops per operation. Labels: op.
inline constexpr const char* kOpWalkHops = "op.walk_hops";

/// Probe keys planned per read op by a multi-key naming strategy
/// (DESIGN.md §12). Labels: op. Absent under single-key strategies, so
/// angle-strategy dumps match the pre-strategy baseline byte-for-byte.
inline constexpr const char* kNamingProbes = "naming.probes";

/// Keys an item was published under. Labels: op. Absent under single-key
/// strategies (same reason as naming.probes).
inline constexpr const char* kNamingKeys = "naming.keys";

// ---- operation-specific series (unlabelled) -------------------------------

/// Publish overflow-chain hops (extra successor legs taken when the home
/// node was full).
inline constexpr const char* kPublishChainHops = "publish.chain_hops";

/// Replica legs that could not be placed per publish.
inline constexpr const char* kPublishReplicasMissed = "publish.replicas_missed";

/// Known-stored items a retrieve failed to collect.
inline constexpr const char* kRetrieveItemsMissed = "retrieve.items_missed";

/// Items returned per similarity search.
inline constexpr const char* kSearchItems = "search.items";

/// Per-item metadata lookups that failed during a similarity search.
inline constexpr const char* kSearchLookupsFailed = "search.lookups_failed";

/// Locate calls that found the item (counter; compare with op.count
/// {op=locate} for the hit rate).
inline constexpr const char* kLocateFound = "locate.found";

/// Subscriber notifications delivered / lost during publish commits.
inline constexpr const char* kNotifyDelivered = "notify.delivered";
inline constexpr const char* kNotifyLost = "notify.lost";

// ---- fault-path series (labelled with op) ---------------------------------

/// Per-hop retransmissions after a loss/timeout. Labels: op.
inline constexpr const char* kFaultRetries = "fault.retries";

/// Timeouts waited out (losses + injected delays). Labels: op.
inline constexpr const char* kFaultTimeouts = "fault.timeouts";

/// Alternate-finger reroutes after a hop exhausted its retries.
/// Labels: op.
inline constexpr const char* kFaultReroutes = "fault.reroutes";

/// Simulated seconds spent waiting on timeouts, per op (histogram).
/// Labels: op. Unit: seconds.
inline constexpr const char* kFaultTimeoutCost = "fault.timeout_cost";

/// Scheduled node crashes applied at operation boundaries.
inline constexpr const char* kFaultCrashesApplied = "fault.crashes_applied";

// ---- system gauges --------------------------------------------------------

/// Alive overlay nodes. Refreshed at operation boundaries (and batch
/// barriers); see DESIGN.md §8 for the snapshot discipline.
inline constexpr const char* kAliveNodes = "system.alive_nodes";

/// Items stored across all nodes. O(N) to compute, so refreshed only at
/// batch barriers, never per op.
inline constexpr const char* kStoredItems = "system.stored_items";

// ---- epoch engine (DESIGN.md §11) -----------------------------------------

/// The epoch the EpochEngine last sealed (gauge; reads pinned it, writes
/// committed into it + 1).
inline constexpr const char* kEpochCurrent = "epoch.current";

/// Epoch boundaries crossed (one increment per seal()).
inline constexpr const char* kEpochAdvances = "epoch.advances";

}  // namespace meteo::obs::names
