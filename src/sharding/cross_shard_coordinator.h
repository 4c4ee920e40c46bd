/// \file cross_shard_coordinator.h
/// \brief Two-phase commit and the global timestamp axis of a
///        ShardedDatabase.
///
/// Each Database shard is a complete store with its own lock manager and
/// version store, so intra-shard isolation needs no help. What the
/// coordinator adds is the *cross-shard* story:
///
///   * **One timestamp axis.** Every commit/abort in a sharded deployment
///     is stamped with a timestamp drawn from the coordinator's single
///     monotonic counter (never from a shard's local one), so "state as
///     of S" is meaningful across shards and a reader's ReadViews — all
///     pinned at one global S — compose into one consistent snapshot.
///   * **Two-phase commit for multi-shard writers.** Prepare freezes
///     every writer participant (writes applied, locks held, only
///     commit/abort legal); then, under the coordinator's commit mutex,
///     one timestamp T is drawn and stamped into every participant's
///     version store. OpenGlobalSnapshot takes the same mutex, so no
///     reader can pin an S >= T while any shard's half of commit T is
///     still pending: a snapshot sees all of a cross-shard commit or
///     none of it.
///   * **Fast path.** Transactions with at most one *writer* participant
///     skip 2PC entirely — no prepare, no commit-mutex serialization.
///     Read-only participants of any transaction commit plainly (they
///     have nothing to stamp). What the fast path cannot skip is
///     snapshot atomicity: its timestamp is drawn *and registered as
///     in-flight* in one step, and OpenGlobalSnapshot pins S strictly
///     below every in-flight commit — otherwise a reader could pin
///     S >= ts while the commit's versions are still being stamped and
///     watch it flip from invisible (pending = +infinity) to visible
///     (ts <= S) mid-snapshot, seeing half a multi-object commit.
///
/// Cross-shard *deadlocks* are invisible to the per-shard wait-for
/// graphs, so the coordinator owns a deployment-wide GlobalWaitGraph
/// (wait_graph.h) that every shard's lock manager registers its blocking
/// waits in: cycle-closing waits are refused with Status::Aborted, the
/// same newcomer victim as intra-shard detection. The per-shard
/// lock wait timeout (StorageOptions::lock_wait_timeout_nanos, lowered
/// by ShardedDatabase) remains only as the backstop for cycles the
/// graph's conflicting-edges-only approximation cannot express.

#ifndef OCB_SHARDING_CROSS_SHARD_COORDINATOR_H_
#define OCB_SHARDING_CROSS_SHARD_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "concurrency/commit_pipeline.h"
#include "concurrency/wait_graph.h"
#include "oodb/database.h"
#include "sharding/sharded_transaction.h"
#include "util/status.h"
#include "util/sync.h"

namespace ocb {

/// Aggregate coordinator counters (monotonic; read via stats()).
struct CrossShardStats {
  uint64_t fast_path_commits = 0;   ///< Commits with <= 1 writer shard.
  uint64_t cross_shard_commits = 0; ///< Two-phase commits.
  uint64_t prepares = 0;            ///< Participant PrepareTxn calls.
  uint64_t aborts = 0;              ///< Coordinator-driven aborts.
  uint64_t injected_aborts = 0;     ///< Failpoint-triggered 2PC aborts.
  uint64_t snapshots_opened = 0;    ///< Global read snapshots pinned.
  uint64_t twopc_nanos = 0;         ///< Wall time inside 2PC paths.
};

/// \brief Issues global timestamps and drives sharded commit/abort.
class CrossShardCoordinator {
 public:
  explicit CrossShardCoordinator(std::vector<Database*> shards)
      : shards_(std::move(shards)) {}

  CrossShardCoordinator(const CrossShardCoordinator&) = delete;
  CrossShardCoordinator& operator=(const CrossShardCoordinator&) = delete;

  /// Latest timestamp handed out on the global axis.
  CommitTs latest_ts() const {
    return next_ts_.load(std::memory_order_relaxed);
  }

  /// Pins one global snapshot point S and opens a ReadView at S on every
  /// shard, filling \p txn's per-shard contexts. Serializes against
  /// multi-shard commit stamping (commit mutex), so S can never split a
  /// cross-shard commit.
  void OpenGlobalSnapshot(ShardedTransaction* txn);

  /// OpenGlobalSnapshot's analog for a snapshot-isolation *writer*: pins
  /// one global snapshot point S and opens an SI participant context at
  /// S on every shard (Database::BeginSiWriterTxnAt). Eager for the same
  /// reason readers are — every shard's view must be registered before
  /// any shard's GC can advance past S.
  void OpenGlobalSiContexts(ShardedTransaction* txn);

  /// Commits \p txn: plain per-shard commit for readers, fast path for a
  /// single writer shard, two-phase commit for several. On the 2PC path
  /// a failpoint (SetCommitFailpoint) may inject an abort between
  /// prepare and commit, in which case every participant rolls back and
  /// Status::Aborted is returned.
  Status Commit(ShardedTransaction* txn);

  /// Commit through the group-commit pipeline: committing transactions
  /// form batches (commit_pipeline.h) whose leader coalesces the
  /// coordinator's serialized work — ONE in-flight-registry pass draws
  /// every fast-path member's timestamp, ONE commit-mutex section stamps
  /// every 2PC member. Per-member semantics (prepare, failpoint, abort
  /// isolation) are identical to Commit: an injected abort kills only
  /// the member it fires for, the rest of the batch commits.
  Status CommitGrouped(ShardedTransaction* txn);

  /// Group-commit pipeline counters.
  GroupCommitStats group_commit_stats() const { return pipeline_.stats(); }

  /// Aborts \p txn on every participant shard (one globally drawn seal
  /// timestamp for all writer participants). Idempotent: aborting an
  /// already-aborted transaction returns OK.
  Status Abort(ShardedTransaction* txn);

  /// Test hook: when set and returning true, a two-phase commit aborts
  /// after every participant prepared and before any shard is stamped —
  /// the window whose atomicity the 2PC tests pin down. Set/clear only
  /// while no transaction is committing.
  void SetCommitFailpoint(std::function<bool()> failpoint) {
    commit_failpoint_ = std::move(failpoint);
  }

  /// The deployment-wide wait-for graph every shard's lock manager is
  /// wired to (ShardedDatabase attaches it at construction) — the
  /// cross-shard deadlock detector.
  GlobalWaitGraph* wait_graph() { return &wait_graph_; }

  /// Attaches the coordinator's marker log ("<wal_path>.coord", owned by
  /// the ShardedDatabase). A 2PC commit appends its participants' redo
  /// records, forces the participating shards' logs, appends one commit
  /// marker here — all before any participant lock is released — and
  /// forces the marker before the ack. Recovery replays a kCoordinated
  /// participant record only if its marker is present, which is what
  /// makes a cross-shard commit recover on all shards or none.
  void AttachWal(wal::WalWriter* coord_wal) { coord_wal_ = coord_wal; }
  wal::WalWriter* coord_wal() { return coord_wal_; }

  /// Advances the global timestamp axis to at least \p ts. Recovery calls
  /// this after replay so new commits stamp past every replayed one; call
  /// only while no transaction is in flight.
  void AdvanceTimestampTo(CommitTs ts);

  CrossShardStats stats() const;

 private:
  /// Draws the next timestamp on the global axis.
  CommitTs NextTimestamp() {
    return next_ts_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Draws a fast-path commit timestamp and marks it in-flight (one
  /// atomic step under inflight_mu_); EndFastPathCommit retires it once
  /// every version is stamped. OpenGlobalSnapshot pins below the oldest
  /// in-flight timestamp, which is what keeps fast-path stamping — done
  /// outside commit_mu_ — invisible-or-complete to every snapshot.
  CommitTs BeginFastPathCommit();
  void EndFastPathCommit(CommitTs ts);

  /// Rolls every participant back (writers sealed at one global
  /// timestamp) and marks \p txn aborted. Returns the first rollback
  /// failure, OK otherwise.
  Status AbortParticipants(ShardedTransaction* txn);

  /// Runs Database::FinalizeCc on every participant context of a non-
  /// read-only transaction (no-op per context under 2PL or when already
  /// finalized): SI/OCC validation and buffered-write apply happen here,
  /// BEFORE classification and WAL append — the redo record is built
  /// from the undo log the apply phase populates, and OCC read sets on
  /// pure-read participant shards must validate too. Contexts iterate in
  /// ascending shard order and each shard's write set locks in ascending
  /// oid order, so concurrent finalizers cannot deadlock each other. On
  /// a validation loss every participant is rolled back and the
  /// WriteConflict is returned; the transaction is left aborted.
  Status FinalizeParticipants(ShardedTransaction* txn);

  /// 2PC durability choreography for one transaction (caller holds
  /// commit_mu_, coord_wal_ attached): append every writer participant's
  /// redo record, force the participating shards' logs, then append —
  /// not force — the commit marker. Marker-present therefore implies
  /// every participant record is durable; the caller forces the marker
  /// (after the mutex, before the ack).
  Status LogCoordinatedCommit(ShardedTransaction* txn,
                              const std::vector<uint32_t>& writers,
                              CommitTs ts);

  /// Group-commit batch body (pipeline leader): classifies members,
  /// batches the fast-path registry traffic and the 2PC commit-mutex
  /// section.
  void CommitBatch(const std::vector<CommitPipeline::Request*>& batch);

  std::vector<Database*> shards_;
  std::atomic<CommitTs> next_ts_{0};

  /// Group-commit pipeline behind CommitGrouped.
  CommitPipeline pipeline_{
      [this](const std::vector<CommitPipeline::Request*>& batch) {
        CommitBatch(batch);
      }};

  /// Spans every multi-shard stamping loop; OpenGlobalSnapshot takes it
  /// too. Ordering: this mutex is acquired *before* any shard's
  /// version-store commit mutex, never after.
  Mutex commit_mu_{lockdep::kCoordinatorCommitClass};

  /// Fast-path commits whose timestamps are drawn but not yet fully
  /// stamped (guarded by inflight_mu_, a leaf mutex). std::set: the
  /// snapshot path needs the minimum.
  Mutex inflight_mu_{lockdep::kCoordinatorInflightClass};
  std::set<CommitTs> inflight_commits_ OCB_GUARDED_BY(inflight_mu_);

  std::function<bool()> commit_failpoint_;
  GlobalWaitGraph wait_graph_;

  /// 2PC commit-marker log, owned by the ShardedDatabase (see AttachWal);
  /// nullptr when real durability is off.
  wal::WalWriter* coord_wal_ = nullptr;

  mutable std::atomic<uint64_t> fast_path_commits_{0};
  mutable std::atomic<uint64_t> cross_shard_commits_{0};
  mutable std::atomic<uint64_t> prepares_{0};
  mutable std::atomic<uint64_t> aborts_{0};
  mutable std::atomic<uint64_t> injected_aborts_{0};
  mutable std::atomic<uint64_t> snapshots_opened_{0};
  mutable std::atomic<uint64_t> twopc_nanos_{0};
};

}  // namespace ocb

#endif  // OCB_SHARDING_CROSS_SHARD_COORDINATOR_H_
