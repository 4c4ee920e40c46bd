/// \file metrics.h
/// \brief OCB's measurements (paper §3.3): database response time (global
///        and per transaction type), number of accessed objects (idem),
///        and I/O counts — transaction I/Os vs clustering overhead I/Os.

#ifndef OCB_OCB_METRICS_H_
#define OCB_OCB_METRICS_H_

#include <array>
#include <cstdint>
#include <string>

#include "ocb/parameters.h"
#include "storage/buffer_pool.h"
#include "util/stats.h"

namespace ocb {

/// Per-transaction-type aggregates.
struct TypeMetrics {
  uint64_t transactions = 0;
  Accumulator response_nanos;    ///< Simulated response time / transaction.
  Accumulator objects_accessed;  ///< Objects touched / transaction.
  Accumulator io_reads;          ///< Transaction-scope reads / transaction.
  Histogram response_histogram;  ///< Response-time distribution (p50/p99).

  void Record(uint64_t nanos, uint64_t objects, uint64_t reads) {
    ++transactions;
    response_nanos.Add(static_cast<double>(nanos));
    objects_accessed.Add(static_cast<double>(objects));
    io_reads.Add(static_cast<double>(reads));
    response_histogram.Record(nanos);
  }

  void Merge(const TypeMetrics& other) {
    transactions += other.transactions;
    response_nanos.Merge(other.response_nanos);
    objects_accessed.Merge(other.objects_accessed);
    io_reads.Merge(other.io_reads);
    response_histogram.Merge(other.response_histogram);
  }
};

/// \brief Aggregate result of one protocol phase (cold run or warm run).
struct PhaseMetrics {
  std::array<TypeMetrics, kNumTransactionTypes> per_type;
  TypeMetrics global;

  /// Transaction-scope I/O totals over the phase.
  uint64_t transaction_io_reads = 0;
  uint64_t transaction_io_writes = 0;

  /// Buffer-pool behaviour over the phase.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;

  uint64_t wall_micros = 0;  ///< Real time spent executing the phase.

  /// Concurrency-control behaviour (2PL path; zero on the legacy path).
  /// Aborted transactions are rolled back and excluded from the response /
  /// object / I/O aggregates above; lock-wait time accumulates over both
  /// committed and aborted transactions.
  uint64_t aborts = 0;
  uint64_t lock_wait_nanos = 0;

  /// Latch behaviour (physical wait, all transactions of the phase): time
  /// client threads spent blocked on the Database catalog latch vs on page
  /// latches.
  uint64_t facade_wait_nanos = 0;
  uint64_t page_latch_wait_nanos = 0;

  /// MVCC behaviour (zero when snapshot reads are disabled): transactions
  /// that ran as snapshot readers (pinned ReadView, no locks) and the
  /// object reads they served through it.
  uint64_t read_only_commits = 0;
  uint64_t snapshot_reads = 0;

  /// Sharded-execution behaviour (zero on a single Database): committed
  /// transactions whose footprint spanned more than one shard, and the
  /// wall time spent inside the coordinator's two-phase commit paths
  /// (all transactions of the phase — the 2PC overhead number).
  uint64_t cross_shard_commits = 0;
  uint64_t twopc_nanos = 0;

  /// Tail distributions of the per-transaction wall-time components
  /// (nanoseconds; util/stats.h log-bucket histograms, so they exist in
  /// every build — independent of the obs layer / OCB_OBS). Sums hide
  /// the tail that lock conflicts actually change; p50/p95/p99 of these
  /// are what bench_multiclient and BENCH_*.json report.
  ///
  ///   * lock_wait_histogram — one sample per transaction with nonzero
  ///     lock wait (committed and aborted alike).
  ///   * commit_latency_histogram — one sample per committed
  ///     transactional commit (the Commit() call, incl. group-commit
  ///     queue time).
  ///   * twopc_histogram — one sample per transaction that paid a 2PC
  ///     section (cross-shard writers).
  Histogram lock_wait_histogram;
  Histogram commit_latency_histogram;
  Histogram twopc_histogram;

  void Merge(const PhaseMetrics& other);

  double mean_ios_per_transaction() const {
    return global.io_reads.mean();
  }
  double buffer_hit_ratio() const {
    const uint64_t total = buffer_hits + buffer_misses;
    return total == 0 ? 0.0 : static_cast<double>(buffer_hits) / total;
  }

  /// Aborted / attempted transactions (0 when nothing ran).
  double abort_rate() const {
    const uint64_t attempted = global.transactions + aborts;
    return attempted == 0 ? 0.0
                          : static_cast<double>(aborts) / attempted;
  }

  /// Per-type + global summary table.
  std::string ToTableString(const std::string& title) const;
};

/// \brief Full workload result: cold phase, warm phase, clustering overhead.
struct WorkloadMetrics {
  PhaseMetrics cold;
  PhaseMetrics warm;

  /// Clustering-scope I/Os charged during the run (observation upkeep and
  /// reorganizations triggered mid-run).
  uint64_t clustering_io = 0;

  void Merge(const WorkloadMetrics& other) {
    cold.Merge(other.cold);
    warm.Merge(other.warm);
    clustering_io += other.clustering_io;
  }
};

}  // namespace ocb

#endif  // OCB_OCB_METRICS_H_
