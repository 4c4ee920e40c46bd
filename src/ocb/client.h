/// \file client.h
/// \brief Multi-user execution (paper §3.1: "the last version of OCB also
///        supports multiple users, in a very simple way").
///
/// CLIENTN clients run the cold/warm protocol concurrently against one
/// shared engine — a single Database or a ShardedDatabase (threads stand
/// in for the paper's processes; the contention surface — shared store(s),
/// shared buffer pool(s) — is the same). With more than one client the run
/// is automatically *transactional*: every client transaction executes
/// under the 2PL concurrency-control subsystem, so conflicting clients
/// block on object locks, deadlock victims roll back, and the report
/// carries per-client abort counts and lock-wait time. On a sharded
/// engine the report additionally carries the cross-shard transaction
/// count and cumulative 2PC time. Per-phase metrics from all clients are
/// merged.
///
/// Caveat: with more than one client, per-transaction I/O attribution is
/// approximate (the disk counters are shared), while phase totals remain
/// exact. Single-client runs are fully exact.

#ifndef OCB_OCB_CLIENT_H_
#define OCB_OCB_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "ocb/metrics.h"
#include "ocb/parameters.h"
#include "ocb/protocol.h"
#include "oodb/database.h"
#include "util/status.h"

namespace ocb {

/// Per-client outcome of a multi-client run.
struct ClientOutcome {
  uint32_t client_id = 0;
  uint64_t committed = 0;        ///< Transactions that committed.
  uint64_t aborts = 0;           ///< Deadlock victims / lock timeouts.
  uint64_t lock_wait_nanos = 0;  ///< Cumulative blocked wall time (locks).
  uint64_t facade_wait_nanos = 0;      ///< Blocked on the facade latch.
  uint64_t page_latch_wait_nanos = 0;  ///< Blocked on page latches.
  uint64_t cross_shard_commits = 0;    ///< Commits spanning > 1 shard.
  uint64_t twopc_nanos = 0;            ///< Time inside 2PC commit/abort.
  uint64_t wall_micros = 0;      ///< This client's end-to-end wall time.

  double throughput_tps() const {
    if (wall_micros == 0) return 0.0;
    return static_cast<double>(committed) * 1e6 /
           static_cast<double>(wall_micros);
  }
};

/// Result of a multi-client run.
struct MultiClientReport {
  WorkloadMetrics merged;              ///< All clients' metrics combined.
  std::vector<ClientOutcome> per_client;
  uint64_t wall_micros = 0;            ///< End-to-end wall time of the run.
  uint32_t clients = 0;

  /// Transactions per wall-second across all clients.
  double throughput_tps() const {
    if (wall_micros == 0) return 0.0;
    const uint64_t txns =
        merged.cold.global.transactions + merged.warm.global.transactions;
    return static_cast<double>(txns) * 1e6 /
           static_cast<double>(wall_micros);
  }

  uint64_t total_aborts() const {
    return merged.cold.aborts + merged.warm.aborts;
  }
  uint64_t total_lock_wait_nanos() const {
    return merged.cold.lock_wait_nanos + merged.warm.lock_wait_nanos;
  }
  uint64_t total_facade_wait_nanos() const {
    return merged.cold.facade_wait_nanos + merged.warm.facade_wait_nanos;
  }
  uint64_t total_page_latch_wait_nanos() const {
    return merged.cold.page_latch_wait_nanos +
           merged.warm.page_latch_wait_nanos;
  }
  uint64_t total_read_only_commits() const {
    return merged.cold.read_only_commits + merged.warm.read_only_commits;
  }
  uint64_t total_snapshot_reads() const {
    return merged.cold.snapshot_reads + merged.warm.snapshot_reads;
  }
  uint64_t total_cross_shard_commits() const {
    return merged.cold.cross_shard_commits +
           merged.warm.cross_shard_commits;
  }
  uint64_t total_twopc_nanos() const {
    return merged.cold.twopc_nanos + merged.warm.twopc_nanos;
  }

  /// Tail distributions merged over both phases and every client —
  /// p50/p95/p99 of per-transaction lock wait, commit latency, and 2PC
  /// section time. Sums (above) hide the tail that lock conflicts and
  /// group-commit windows actually change; these are what the benches
  /// and BENCH_*.json report.
  Histogram lock_wait_histogram() const {
    Histogram h = merged.cold.lock_wait_histogram;
    h.Merge(merged.warm.lock_wait_histogram);
    return h;
  }
  Histogram commit_latency_histogram() const {
    Histogram h = merged.cold.commit_latency_histogram;
    h.Merge(merged.warm.commit_latency_histogram);
    return h;
  }
  Histogram twopc_histogram() const {
    Histogram h = merged.cold.twopc_histogram;
    h.Merge(merged.warm.twopc_histogram);
    return h;
  }
  /// Committed transactions whose footprint crossed shards / all
  /// committed transactions (0 on a single Database).
  double cross_shard_fraction() const {
    const uint64_t committed =
        merged.cold.global.transactions + merged.warm.global.transactions;
    return committed == 0
               ? 0.0
               : static_cast<double>(total_cross_shard_commits()) /
                     static_cast<double>(committed);
  }
  double abort_rate() const {
    const uint64_t committed =
        merged.cold.global.transactions + merged.warm.global.transactions;
    const uint64_t attempted = committed + total_aborts();
    return attempted == 0
               ? 0.0
               : static_cast<double>(total_aborts()) / attempted;
  }
};

namespace client_internal {

inline ClientOutcome OutcomeFrom(uint32_t client_id,
                                 const WorkloadMetrics& m,
                                 uint64_t wall_micros) {
  ClientOutcome outcome;
  outcome.client_id = client_id;
  outcome.committed =
      m.cold.global.transactions + m.warm.global.transactions;
  outcome.aborts = m.cold.aborts + m.warm.aborts;
  outcome.lock_wait_nanos = m.cold.lock_wait_nanos + m.warm.lock_wait_nanos;
  outcome.facade_wait_nanos =
      m.cold.facade_wait_nanos + m.warm.facade_wait_nanos;
  outcome.page_latch_wait_nanos =
      m.cold.page_latch_wait_nanos + m.warm.page_latch_wait_nanos;
  outcome.cross_shard_commits =
      m.cold.cross_shard_commits + m.warm.cross_shard_commits;
  outcome.twopc_nanos = m.cold.twopc_nanos + m.warm.twopc_nanos;
  outcome.wall_micros = wall_micros;
  return outcome;
}

inline uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace client_internal

/// \brief Runs CLIENTN concurrent ProtocolRunners over one shared engine
/// (Database or ShardedDatabase) and merges their metrics.
template <typename DB>
Result<MultiClientReport> RunMultiClient(DB* db,
                                         const WorkloadParameters& params) {
  using client_internal::MicrosSince;
  using client_internal::OutcomeFrom;
  OCB_RETURN_NOT_OK(params.Validate());
  MultiClientReport report;
  report.clients = params.client_count;
  const auto wall_start = std::chrono::steady_clock::now();

  if (params.client_count == 1) {
    ProtocolRunnerT<DB> runner(db, params, /*client_id=*/0);
    OCB_ASSIGN_OR_RETURN(WorkloadMetrics metrics, runner.Run());
    report.per_client.push_back(
        OutcomeFrom(0, metrics, MicrosSince(wall_start)));
    report.merged = std::move(metrics);
  } else {
    // CLIENTN real threads over one shared engine: the transactional
    // path isolates their interleavings (ProtocolRunner auto-enables it
    // for client_count > 1).
    std::vector<std::thread> threads;
    std::vector<WorkloadMetrics> results(params.client_count);
    std::vector<uint64_t> client_wall(params.client_count, 0);
    std::vector<Status> statuses(params.client_count, Status::OK());
    for (uint32_t c = 0; c < params.client_count; ++c) {
      threads.emplace_back([&, c]() {
        const auto client_start = std::chrono::steady_clock::now();
        ProtocolRunnerT<DB> runner(db, params, /*client_id=*/c);
        auto metrics = runner.Run();
        if (metrics.ok()) {
          results[c] = std::move(metrics).value();
        } else {
          statuses[c] = metrics.status();
        }
        client_wall[c] = MicrosSince(client_start);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& st : statuses) {
      OCB_RETURN_NOT_OK(st);
    }
    for (uint32_t c = 0; c < params.client_count; ++c) {
      report.per_client.push_back(
          OutcomeFrom(c, results[c], client_wall[c]));
      report.merged.Merge(results[c]);
    }
  }

  report.wall_micros = MicrosSince(wall_start);
  return report;
}

}  // namespace ocb

#endif  // OCB_OCB_CLIENT_H_
