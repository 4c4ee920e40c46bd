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
/// block on object locks and deadlock victims roll back. The report
/// merges every client's per-phase metrics (PhaseMetrics: aborts, lock
/// wait, and on a sharded engine cross-shard commits and 2PC time).
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

/// Result of a multi-client run.
struct MultiClientReport {
  WorkloadMetrics merged;              ///< All clients' metrics combined.
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
};

/// \brief Runs CLIENTN concurrent ProtocolRunners over one shared engine
/// (Database or ShardedDatabase) and merges their metrics.
template <typename DB>
Result<MultiClientReport> RunMultiClient(DB* db,
                                         const WorkloadParameters& params) {
  OCB_RETURN_NOT_OK(params.Validate());
  MultiClientReport report;
  report.clients = params.client_count;
  const auto wall_start = std::chrono::steady_clock::now();

  if (params.client_count == 1) {
    ProtocolRunnerT<DB> runner(db, params, /*client_id=*/0);
    OCB_ASSIGN_OR_RETURN(report.merged, runner.Run());
  } else {
    // CLIENTN real threads over one shared engine: the transactional
    // path isolates their interleavings (ProtocolRunner auto-enables it
    // for client_count > 1).
    std::vector<std::thread> threads;
    std::vector<WorkloadMetrics> results(params.client_count);
    std::vector<Status> statuses(params.client_count, Status::OK());
    for (uint32_t c = 0; c < params.client_count; ++c) {
      threads.emplace_back([&, c]() {
        ProtocolRunnerT<DB> runner(db, params, /*client_id=*/c);
        auto metrics = runner.Run();
        if (metrics.ok()) {
          results[c] = std::move(metrics).value();
        } else {
          statuses[c] = metrics.status();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& st : statuses) {
      OCB_RETURN_NOT_OK(st);
    }
    for (const WorkloadMetrics& m : results) report.merged.Merge(m);
  }

  report.wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return report;
}

}  // namespace ocb

#endif  // OCB_OCB_CLIENT_H_
