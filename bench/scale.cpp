/// Million-node scale bench (DESIGN.md §13): assembles overlays at
/// N = 10^4, 10^5, 10^6 with bulk_join(), reports the join rate, the
/// compact-layout bytes/node, and peak RSS, then drives a Table 1
/// mixed-operation workload (TraceStream baskets -> route + replica-home
/// lookups) and an event-queue churn loop against each ring. The
/// bulk-join rate and bytes/node are gated elsewhere on every ctest run:
/// BM_OverlayBulkJoin (tools/bench_gate.py) and ScaleSmoke.
///
/// Unlike the figure benches this one never materializes a trace or a
/// Meteorograph: at 10^6 nodes the overlay substrate itself is the
/// subject, and the workload must stream (O(basket) memory) for the
/// numbers to mean anything.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/rng.hpp"
#include "overlay/overlay.hpp"
#include "sim/event_queue.hpp"
#include "workload/stream.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set in MiB (VmHWM), 0 if /proc is unavailable.
double rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      unsigned long long kb = 0;
      std::sscanf(line.c_str(), "VmHWM: %llu", &kb);
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace meteo;
  CliParser cli;
  cli.add_flag("node-counts", "10000,100000,1000000",
               "comma-separated overlay sizes");
  cli.add_flag("mixed-ops", "20000",
               "Table 1 mixed operations per overlay size");
  cli.add_flag("events", "1000000", "event-queue schedule/fire cycles");
  cli.add_flag("seed", "1", "rng seed");
  cli.add_flag("csv", "", "unused (uniform flag surface)");
  if (!cli.parse(argc, argv)) return 1;

  std::vector<std::size_t> node_counts;
  {
    const std::string spec = cli.get("node-counts");
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const std::size_t comma = spec.find(',', pos);
      node_counts.push_back(static_cast<std::size_t>(
          std::stoll(spec.substr(pos, comma - pos))));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  const auto mixed_ops =
      static_cast<std::size_t>(std::stoll(cli.get("mixed-ops")));
  const auto event_cycles =
      static_cast<std::size_t>(std::stoll(cli.get("events")));
  const auto seed = static_cast<std::uint64_t>(std::stoll(cli.get("seed")));

  std::printf("%-28s %12s %14s %12s %10s\n", "bench", "seconds", "ops/s",
              "bytes/node", "rss MiB");

  for (const std::size_t n : node_counts) {
    overlay::OverlayConfig config;
    const std::vector<overlay::Key> keys =
        bench::sorted_unique_keys(n, config.key_space, seed);

    // --- bulk join: ring + every routing table, from sorted keys -------
    overlay::Overlay net(config);
    const auto join_start = Clock::now();
    net.bulk_join(keys);
    const double join_secs = seconds_since(join_start);
    const overlay::OverlayMemoryStats stats = net.memory_stats();

    std::printf("%-28s %12.3f %14.0f %12.1f %10.1f\n",
                ("scale_bulk_join_n" + std::to_string(n)).c_str(), join_secs,
                static_cast<double>(n) / join_secs, stats.bytes_per_node(),
                rss_mib());

    // --- Table 1 mixed ops: stream baskets, route + replica homes ------
    workload::TraceConfig trace_config;  // paper-shape keyword space
    trace_config.num_items = mixed_ops;
    const workload::TraceStream stream(trace_config, seed);
    Rng rng(seed + 1);
    std::vector<vsm::KeywordId> basket;
    std::vector<overlay::NodeId> homes;
    std::size_t hops = 0;
    const auto ops_start = Clock::now();
    for (std::size_t i = 0; i < mixed_ops; ++i) {
      (void)stream.basket_of(i, basket);
      // The basket's head keyword names the item's primary key; route to
      // it from a random peer and pick replica homes, as publish does.
      const overlay::Key key =
          splitmix64(basket.front()) % config.key_space;
      const overlay::NodeId from = net.random_alive(rng);
      const overlay::RouteResult route = net.route(from, key);
      hops += route.hops;
      net.closest_nodes(key, 4, homes);
    }
    const double ops_secs = seconds_since(ops_start);

    std::printf("%-28s %12.3f %14.0f %12s %10.1f  (mean hops %.2f)\n",
                ("scale_mixed_ops_n" + std::to_string(n)).c_str(), ops_secs,
                static_cast<double>(mixed_ops) / ops_secs, "-", rss_mib(),
                static_cast<double>(hops) / static_cast<double>(mixed_ops));
  }

  // --- event queue churn: schedule/fire with 25% cancellations ----------
  {
    sim::EventQueue queue;
    Rng rng(seed + 2);
    std::size_t fired = 0;
    std::vector<sim::EventId> cancelable;
    const auto ev_start = Clock::now();
    // Seed the queue, then let every fired event reschedule itself until
    // the cycle budget is spent — the steady-state pattern of a 10^8-event
    // simulation, bounded here so the bench stays seconds-scale.
    const std::size_t width = 4096;
    for (std::size_t i = 0; i < width; ++i) {
      const double when = 1.0 + static_cast<double>(rng.below(1000));
      const sim::EventId id = queue.schedule_at(when, [&] { ++fired; });
      if (i % 4 == 0) cancelable.push_back(id);
    }
    for (const sim::EventId id : cancelable) (void)queue.cancel(id);
    while (fired + cancelable.size() < event_cycles) {
      (void)queue.run_all(1);
      const double when =
          queue.now() + 1.0 + static_cast<double>(rng.below(1000));
      (void)queue.schedule_at(when, [&] { ++fired; });
    }
    const double ev_secs = seconds_since(ev_start);

    std::printf("%-28s %12.3f %14.0f %12s %10.1f\n", "scale_event_queue",
                ev_secs, static_cast<double>(event_cycles) / ev_secs, "-",
                rss_mib());
  }
  return 0;
}
