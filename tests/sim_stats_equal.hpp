#pragma once

// Exact comparison of two SimStats, shared by every bit-identity gate
// (sharded vs serial, threaded vs serial sweeps, streamed vs
// materialized, profiled vs unprofiled, traced vs untraced, config
// round trips).

#include <gtest/gtest.h>

#include <string>

#include "memsim/stats.hpp"
#include "util/stats.hpp"

namespace comet::test_support {

/// Exact comparison of one latency/occupancy distribution: count,
/// moments, extremes, sum and the reported percentiles.
inline void expect_same_distribution(const util::RunningStats& x,
                                     const util::RunningStats& y,
                                     const std::string& label) {
  EXPECT_EQ(x.count(), y.count()) << label;
  EXPECT_EQ(x.mean(), y.mean()) << label;
  EXPECT_EQ(x.stddev(), y.stddev()) << label;
  EXPECT_EQ(x.min(), y.min()) << label;
  EXPECT_EQ(x.max(), y.max()) << label;
  EXPECT_EQ(x.sum(), y.sum()) << label;
  EXPECT_EQ(x.p50(), y.p50()) << label;
  EXPECT_EQ(x.p95(), y.p95()) << label;
  EXPECT_EQ(x.p99(), y.p99()) << label;
}

/// Exact comparison of every SimStats field: names, counters, every
/// latency distribution, the energies and the hybrid, scheduler and
/// tenant breakdowns. Any drift — a reordered merge, a lost request, a
/// float-summation order change — fails here. The per-field checks name
/// what drifted; the closing whole-struct `a == b` (histograms bucket
/// for bucket) also covers any field added after them.
inline void expect_identical(const memsim::SimStats& a,
                             const memsim::SimStats& b,
                             const std::string& label) {
  const auto same_dist = [&](const util::RunningStats& x,
                             const util::RunningStats& y, const char* which) {
    expect_same_distribution(x, y, label + " " + which);
  };
  EXPECT_EQ(a.device_name, b.device_name) << label;
  EXPECT_EQ(a.workload_name, b.workload_name) << label;
  EXPECT_EQ(a.reads, b.reads) << label;
  EXPECT_EQ(a.writes, b.writes) << label;
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << label;
  EXPECT_EQ(a.span_ps, b.span_ps) << label;
  same_dist(a.read_latency_ns, b.read_latency_ns, "read");
  same_dist(a.write_latency_ns, b.write_latency_ns, "write");
  same_dist(a.queue_delay_ns, b.queue_delay_ns, "queue");
  EXPECT_EQ(a.dynamic_energy_pj, b.dynamic_energy_pj) << label;
  EXPECT_EQ(a.background_energy_pj, b.background_energy_pj) << label;
  EXPECT_EQ(a.total_bank_busy_ns, b.total_bank_busy_ns) << label;
  EXPECT_EQ(a.hybrid, b.hybrid) << label;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << label;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << label;
  EXPECT_EQ(a.cache_fills, b.cache_fills) << label;
  EXPECT_EQ(a.writebacks, b.writebacks) << label;
  EXPECT_EQ(a.dram_tier_energy_pj, b.dram_tier_energy_pj) << label;
  EXPECT_EQ(a.backend_tier_energy_pj, b.backend_tier_energy_pj) << label;
  EXPECT_EQ(a.scheduled, b.scheduled) << label;
  EXPECT_EQ(a.sched_policy, b.sched_policy) << label;
  same_dist(a.sched_queue_delay_ns, b.sched_queue_delay_ns, "sched-queue");
  same_dist(a.service_latency_ns, b.service_latency_ns, "service");
  same_dist(a.read_queue_occupancy, b.read_queue_occupancy, "read-occ");
  same_dist(a.write_queue_occupancy, b.write_queue_occupancy, "write-occ");
  EXPECT_EQ(a.write_drains, b.write_drains) << label;
  EXPECT_EQ(a.drained_writes, b.drained_writes) << label;
  EXPECT_EQ(a.drain_stalls, b.drain_stalls) << label;
  EXPECT_EQ(a.admit_stalls, b.admit_stalls) << label;
  ASSERT_EQ(a.tenants.size(), b.tenants.size()) << label;
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    const auto& x = a.tenants[t];
    const auto& y = b.tenants[t];
    const std::string tenant = label + " tenant " + x.name;
    EXPECT_EQ(x.name, y.name) << tenant;
    EXPECT_EQ(x.reads, y.reads) << tenant;
    EXPECT_EQ(x.writes, y.writes) << tenant;
    EXPECT_EQ(x.bytes_transferred, y.bytes_transferred) << tenant;
    expect_same_distribution(x.latency_ns, y.latency_ns, tenant);
    EXPECT_EQ(x.alone_avg_latency_ns, y.alone_avg_latency_ns) << tenant;
    EXPECT_EQ(x.slowdown, y.slowdown) << tenant;
  }
  EXPECT_EQ(a.max_slowdown, b.max_slowdown) << label;
  EXPECT_EQ(a.fairness_index, b.fairness_index) << label;
  EXPECT_TRUE(a == b) << label;
}

}  // namespace comet::test_support
