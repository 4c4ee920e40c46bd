/// \file sharded_transaction.h
/// \brief Transaction handle of the ShardedDatabase.
///
/// A sharded transaction is a bundle of per-shard TransactionContexts —
/// one for every shard the transaction has touched, created lazily on
/// first touch for writers and eagerly on every shard for MVCC readers
/// (a reader's per-shard ReadViews must all be registered at the global
/// snapshot point *before* any read, or a shard's GC could reclaim
/// history the reader still needs).
///
/// Like TransactionContext, a ShardedTransaction is single-threaded:
/// exactly one client thread drives it, so the bundle needs no internal
/// synchronization. The accounting accessors (lock_wait_nanos,
/// snapshot_reads) sum over the participant contexts; shards_touched /
/// cross_shard / twopc_nanos feed PhaseMetrics' cross_shard_commits and
/// twopc_nanos.

#ifndef OCB_SHARDING_SHARDED_TRANSACTION_H_
#define OCB_SHARDING_SHARDED_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "concurrency/transaction_context.h"
#include "concurrency/version_store.h"

namespace ocb {

class ShardedDatabase;
class CrossShardCoordinator;

/// \brief State of one in-flight sharded transaction.
class ShardedTransaction {
 public:
  ShardedTransaction(TxnId id, uint32_t shard_count, TxnMode mode)
      : id_(id), contexts_(shard_count), mode_(mode) {}

  ShardedTransaction(const ShardedTransaction&) = delete;
  ShardedTransaction& operator=(const ShardedTransaction&) = delete;

  /// Deployment-wide transaction id; every participant context carries
  /// the same one (the GlobalWaitGraph's identity — see wait_graph.h).
  TxnId id() const { return id_; }

  bool read_only() const { return mode_ == TxnMode::kSnapshotRead; }

  /// The mode every participant context runs under (see TxnMode).
  TxnMode mode() const { return mode_; }

  /// True for SI and OCC (see TransactionContext::optimistic).
  bool optimistic() const {
    return mode_ == TxnMode::kSI || mode_ == TxnMode::kOCC;
  }

  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kActive; }
  bool prepared() const { return state_ == TxnState::kPrepared; }

  /// Global snapshot point (read-only transactions; 0 otherwise). Every
  /// participant shard's ReadView is pinned at this one timestamp.
  CommitTs snapshot_ts() const { return snapshot_ts_; }

  /// Participant context on \p shard, or nullptr if untouched.
  TransactionContext* context(uint32_t shard) const {
    return contexts_[shard].get();
  }

  /// Number of shards this transaction actually *used* — locked, wrote
  /// or snapshot-read on. Mere context existence doesn't count: MVCC
  /// readers open a context on every shard up front (the ReadViews must
  /// all pin before any read), which would otherwise tag every snapshot
  /// reader as maximally cross-shard. Commit/abort releases the locks
  /// the count is derived from, so the coordinator freezes it on entry;
  /// after finish this returns the frozen footprint.
  uint32_t shards_touched() const {
    if (touched_frozen_ != kUnfrozen) return touched_frozen_;
    uint32_t n = 0;
    for (const auto& ctx : contexts_) {
      if (ctx == nullptr) continue;
      // has_writes() covers both in-place (undo-logged) and still-
      // buffered SI/OCC writes; OCC read sets count like S locks.
      if (!ctx->held_locks().empty() || ctx->has_writes() ||
          !ctx->occ_read_set().empty() || ctx->snapshot_reads() > 0) {
        ++n;
      }
    }
    return n;
  }

  /// True when the footprint spans more than one shard (counted in
  /// PhaseMetrics::cross_shard_commits).
  bool cross_shard() const { return shards_touched() > 1; }

  /// Wall time spent inside the coordinator's two-phase commit/abort for
  /// this transaction (0 on the single-shard fast path — which performs
  /// no prepare and touches no coordinator state).
  uint64_t twopc_nanos() const { return twopc_nanos_; }

  /// Cumulative lock-wait time over all participant shards.
  uint64_t lock_wait_nanos() const {
    uint64_t total = 0;
    for (const auto& ctx : contexts_) {
      if (ctx != nullptr) total += ctx->lock_wait_nanos();
    }
    return total;
  }

  /// Reads served through the per-shard ReadViews.
  uint64_t snapshot_reads() const {
    uint64_t total = 0;
    for (const auto& ctx : contexts_) {
      if (ctx != nullptr) total += ctx->snapshot_reads();
    }
    return total;
  }

 private:
  friend class ShardedDatabase;      ///< Creates contexts, drives state.
  friend class CrossShardCoordinator;  ///< Commit/abort + 2PC accounting.

  /// Sentinel for "still in flight, compute the footprint live".
  static constexpr uint32_t kUnfrozen = ~uint32_t{0};

  /// Records the live footprint permanently (coordinator, on the way
  /// into commit/abort, before any lock is released).
  void FreezeTouched() {
    if (touched_frozen_ == kUnfrozen) touched_frozen_ = shards_touched();
  }

  TxnId id_ = kInvalidTxnId;
  std::vector<std::unique_ptr<TransactionContext>> contexts_;
  TxnMode mode_;
  TxnState state_ = TxnState::kActive;
  CommitTs snapshot_ts_ = 0;
  uint64_t twopc_nanos_ = 0;
  uint32_t touched_frozen_ = kUnfrozen;
};

}  // namespace ocb

#endif  // OCB_SHARDING_SHARDED_TRANSACTION_H_
