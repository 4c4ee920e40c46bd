/// \file protocol.h
/// \brief OCB's execution protocol (paper §3.3): per client, a cold run of
///        COLDN transactions (to fill the cache and reach the clustering
///        algorithm's stationary behaviour) followed by a warm run of HOTN
///        transactions; an optional THINK latency separates transactions.
///
/// Transaction types are drawn per PSET..PSTOCH; the root object is drawn
/// per DIST5 over the live objects. Metrics are recorded separately for the
/// cold and warm phases.
///
/// Like the executor, the runner is a template over the engine:
/// ProtocolRunnerT<Database> (alias ProtocolRunner) and
/// ProtocolRunnerT<ShardedDatabase> run the identical protocol.

#ifndef OCB_OCB_PROTOCOL_H_
#define OCB_OCB_PROTOCOL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "ocb/metrics.h"
#include "ocb/parameters.h"
#include "ocb/transaction.h"
#include "oodb/database.h"
#include "util/rng.h"

namespace ocb {

/// \brief Runs the cold/warm protocol for one client.
template <typename DB>
class ProtocolRunnerT {
 public:
  /// \param client_id Offsets the RNG stream so concurrent clients draw
  ///        independent transaction sequences from one WorkloadParameters.
  ProtocolRunnerT(DB* db, const WorkloadParameters& params,
                  uint32_t client_id = 0);

  /// Executes COLDN + HOTN transactions; returns per-phase metrics.
  Result<WorkloadMetrics> Run();

  /// Runs only \p count transactions into \p out (building block used by
  /// Run and by ablation benches that want custom phases).
  Status RunPhase(uint64_t count, PhaseMetrics* out);

 private:
  /// Draws a pool index per DIST5 and validates liveness: a stale entry
  /// (its object died under a Delete transaction — ours or a concurrent
  /// client's) is swapped for a random live object before being returned,
  /// so the pool never hands out dead roots no matter *which* entry went
  /// stale.
  Oid DrawRoot();

  /// Swaps pool entry \p index for a random live object.
  void ReplaceRootAt(size_t index);

  /// Swaps the most recently drawn pool entry (called when a Delete
  /// transaction consumed the root).
  void ReplaceLastRoot() { ReplaceRootAt(last_root_index_); }

  DB* db_;
  WorkloadParameters params_;
  TransactionExecutorT<DB> executor_;
  LewisPayneRng rng_;
  std::vector<Oid> root_pool_;  ///< Snapshot of live oids for DIST5 draws.
  size_t last_root_index_ = 0;
};

/// The single-store runner (the historical name).
using ProtocolRunner = ProtocolRunnerT<Database>;

// --- Template implementation -----------------------------------------------

template <typename DB>
ProtocolRunnerT<DB>::ProtocolRunnerT(DB* db,
                                     const WorkloadParameters& params,
                                     uint32_t client_id)
    : db_(db), params_(params), executor_(db, params_),
      rng_(params.seed + 0x9E3779B9ULL * (client_id + 1)) {
  root_pool_ = db_->LiveOidsSnapshot();
  if (params_.root_pool_size > 0 &&
      params_.root_pool_size < root_pool_.size()) {
    // Deterministic sample shared by all clients: derived from the
    // workload seed only, not the per-client stream.
    LewisPayneRng pool_rng(params_.seed);
    std::shuffle(root_pool_.begin(), root_pool_.end(), pool_rng);
    root_pool_.resize(params_.root_pool_size);
  }
  const bool txn_mode = params_.transactional || params_.client_count > 1;
  executor_.set_transactional(txn_mode);
  if (txn_mode) {
    // Propagate the run-wide engine knobs: the group-commit batch cap and
    // the deadlock victim policy. All clients of one run share the same
    // parameters, so concurrent construction writes the same values.
    db_->SetGroupCommitMaxBatch(params_.group_commit_max_batch);
    db_->SetDeadlockPolicy(params_.deadlock_policy);
  }
}

template <typename DB>
Oid ProtocolRunnerT<DB>::DrawRoot() {
  if (root_pool_.empty()) return kInvalidOid;
  last_root_index_ = static_cast<size_t>(DrawFromDistribution(
      params_.dist5_roots, &rng_, 0,
      static_cast<int64_t>(root_pool_.size()) - 1));
  // A Delete transaction may have killed *any* pool entry, not only the
  // last one drawn (its root's neighborhood is untouched, but other
  // entries can alias the deleted object); validate on draw and repair
  // stale entries in place. The replacement is drawn from the live set, so
  // one swap suffices — under concurrent clients a freshly drawn object
  // can still die before use, which Execute tolerates as NotFound.
  if (!db_->ContainsObject(root_pool_[last_root_index_])) {
    ReplaceRootAt(last_root_index_);
  }
  return root_pool_[last_root_index_];
}

template <typename DB>
void ProtocolRunnerT<DB>::ReplaceRootAt(size_t index) {
  // The entry's object was deleted by a Delete transaction (ours or a
  // concurrent client's); adopt a random live object in its place so the
  // workload follows the evolving database instead of starving.
  const std::vector<Oid> live = db_->LiveOidsSnapshot();
  if (live.empty()) return;
  root_pool_[index] = live[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
}

template <typename DB>
Status ProtocolRunnerT<DB>::RunPhase(uint64_t count, PhaseMetrics* out) {
  const auto wall_start = std::chrono::steady_clock::now();
  const IoCounters io_start = db_->IoCountersFor(IoScope::kTransaction);
  const BufferPoolStats pool_start = db_->PoolStats();

  ScopedEngineIoScope<DB> scope(db_, IoScope::kTransaction);
  for (uint64_t i = 0; i < count; ++i) {
    const TransactionType type = executor_.DrawType(&rng_);
    const bool reversed =
        params_.p_reverse > 0.0 && rng_.Bernoulli(params_.p_reverse);
    const Oid root = DrawRoot();
    if (root == kInvalidOid) {
      return Status::Aborted("no live objects to draw a root from");
    }
    auto result = executor_.Execute(type, root, reversed, &rng_);
    if (!result.ok()) {
      // A deleted root is tolerated: adopt a live replacement into the
      // pool and move on. Anything else aborts the phase.
      if (result.status().IsNotFound()) {
        ReplaceLastRoot();
        continue;
      }
      return result.status();
    }
    out->lock_wait_nanos += result->lock_wait_nanos;
    out->facade_wait_nanos += result->facade_wait_nanos;
    out->page_latch_wait_nanos += result->page_latch_wait_nanos;
    out->snapshot_reads += result->snapshot_reads;
    out->twopc_nanos += result->twopc_nanos;
    // Tail distributions (sums above hide what victim policies change):
    // lock wait over committed AND aborted txns, like the sum.
    if (result->lock_wait_nanos > 0) {
      out->lock_wait_histogram.Record(result->lock_wait_nanos);
    }
    if (result->read_only && !result->aborted) ++out->read_only_commits;
    if (result->aborted) {
      // Deadlock victim (or lock timeout): the txn rolled back — its root
      // is still live and nothing it did counts toward the aggregates.
      ++out->aborts;
      continue;
    }
    if (result->commit_nanos > 0) {
      out->commit_latency_histogram.Record(result->commit_nanos);
    }
    if (result->twopc_nanos > 0) {
      out->twopc_histogram.Record(result->twopc_nanos);
    }
    if (result->cross_shard) ++out->cross_shard_commits;
    if (type == TransactionType::kDelete) {
      // The transaction consumed its root; keep the pool live.
      ReplaceLastRoot();
    }
    out->per_type[static_cast<size_t>(result->type)].Record(
        result->sim_nanos, result->objects_accessed, result->io_reads);
    out->global.Record(result->sim_nanos, result->objects_accessed,
                       result->io_reads);

    if (params_.think_nanos > 0) {
      db_->AdvanceSimClock(params_.think_nanos);
    }
  }

  const IoCounters io_end = db_->IoCountersFor(IoScope::kTransaction);
  const BufferPoolStats pool_end = db_->PoolStats();
  out->transaction_io_reads += io_end.reads - io_start.reads;
  out->transaction_io_writes += io_end.writes - io_start.writes;
  out->buffer_hits += pool_end.hits - pool_start.hits;
  out->buffer_misses += pool_end.misses - pool_start.misses;
  out->wall_micros += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  return Status::OK();
}

template <typename DB>
Result<WorkloadMetrics> ProtocolRunnerT<DB>::Run() {
  OCB_RETURN_NOT_OK(params_.Validate());
  WorkloadMetrics metrics;
  const uint64_t clustering_start =
      db_->IoCountersFor(IoScope::kClustering).total();
  OCB_RETURN_NOT_OK(RunPhase(params_.cold_transactions, &metrics.cold));
  OCB_RETURN_NOT_OK(RunPhase(params_.hot_transactions, &metrics.warm));
  metrics.clustering_io =
      db_->IoCountersFor(IoScope::kClustering).total() - clustering_start;
  return metrics;
}

}  // namespace ocb

#endif  // OCB_OCB_PROTOCOL_H_
