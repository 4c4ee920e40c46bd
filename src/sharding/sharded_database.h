/// \file sharded_database.h
/// \brief N independent Database shards behind one object-database
///        facade, with two-phase cross-shard commit.
///
/// Past per-page latching (PR 3) the remaining single-store bottlenecks
/// are the singletons: one lock-manager mutex, one catalog latch, one
/// version-store commit mutex. Sharding removes them by *partitioning
/// the oid space* across N complete Databases — each with its own
/// LockManager, VersionStore, BufferPool and DiskSim — so transactions
/// that touch different shards share no synchronization at all below the
/// coordinator.
///
///   * Routing is hash-by-oid (ShardRouter: (oid-1) mod N), paired with
///     strided per-shard oid allocation so every oid routes to the shard
///     that created it. Creation round-robins across shards.
///   * Single-object operations (Get/Peek/Put/Create/CrossLink) forward
///     to the owning shard verbatim.
///   * Multi-object operations (SetReference, DeleteObject) delegate to
///     the owning shard when the whole footprint is local, and otherwise
///     are choreographed here: X-lock the footprint through each shard's
///     lock manager, validate before the first write, then apply per
///     shard via PutObject (which undo-logs and version-publishes per
///     shard, keeping rollback and MVCC sound).
///   * Commit/abort run through the CrossShardCoordinator: single-shard
///     transactions take a fast path with no coordinator state;
///     multi-shard writers run two-phase commit stamped with one global
///     timestamp, and MVCC readers pin one global snapshot point across
///     every shard — see cross_shard_coordinator.h for the consistency
///     argument.
///
/// Reorganizers and snapshot save/load quiesce **per shard**
/// (shard(k) + Database::QuiesceGuard): rewriting shard k's physical
/// layout never stalls traffic on the other shards. Cross-shard
/// deadlocks — invisible to every per-shard wait-for DFS — are refused
/// by the coordinator's GlobalWaitGraph, which every shard's lock
/// manager registers its blocking waits in (sharded transactions carry
/// one deployment-wide txn id across their per-shard contexts for
/// exactly this); the lowered per-shard lock wait timeout survives only
/// as the backstop for cycles the graph's edge approximation misses.
///
/// The complete ordering rules (locks before latches, coordinator commit
/// mutex before shard commit mutexes, ascending-oid cross-shard lock
/// acquisition) live in ARCHITECTURE.md §"Ordering rules".

#ifndef OCB_SHARDING_SHARDED_DATABASE_H_
#define OCB_SHARDING_SHARDED_DATABASE_H_

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "oodb/database.h"
#include "sharding/cross_shard_coordinator.h"
#include "sharding/shard_router.h"
#include "sharding/sharded_transaction.h"
#include "util/status.h"

namespace ocb {

template <typename DB>
class SessionT;
template <typename DB>
class TransactionT;

/// \brief The sharded OODB: Database's API surface over N shards.
class ShardedDatabase {
 public:
  /// \param base Options applied to every shard, except: the buffer pool
  ///        is split evenly (total frames ≈ base.buffer_pool_pages, so
  ///        SHARDN sweeps compare equal memory), the oid progression is
  ///        set per shard to match the router, the lock wait timeout is
  ///        lowered (cross-shard deadlock backstop), and a non-empty
  ///        backing_file gets a per-shard suffix.
  ShardedDatabase(const StorageOptions& base, uint32_t shard_count);

  ~ShardedDatabase();

  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  uint32_t shard_count() const { return router_.shard_count(); }
  const ShardRouter& router() const { return router_; }
  Database* shard(uint32_t k) { return shards_[k].get(); }
  CrossShardCoordinator* coordinator() { return coordinator_.get(); }

  /// Installs the schema on every shard (each maintains its own extents —
  /// the members it owns) and keeps a master copy for descriptor lookups.
  void SetSchema(Schema schema);

  /// Master schema: class descriptors are authoritative, extents are NOT
  /// maintained here — use ExtentSnapshot for membership.
  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }

  // --- Transaction lifecycle ---

  /// Starts a sharded transaction in \p mode (see TxnMode). 2PL and OCC
  /// writers acquire per-shard contexts lazily on first touch (OCC reads
  /// resolve committed-latest, pinning nothing). kSnapshotRead pins one
  /// global snapshot point and opens a ReadView on every shard, so all
  /// reads resolve against one cross-shard instant. kSI writers get the
  /// same *eager* contexts — every view pinned at one global snapshot
  /// point under the coordinator's commit mutex (lazy opening would race
  /// per-shard version GC). 2PC prepare validates SI/OCC participants
  /// (Database::PrepareTxn → FinalizeCc) so a validation loss aborts the
  /// whole sharded transaction with Status::WriteConflict.
  std::unique_ptr<ShardedTransaction> BeginTxn(TxnMode mode = TxnMode::k2PL);

  /// Commits via the coordinator: fast path for a single writer shard,
  /// two-phase commit for several. Status::Aborted means the commit
  /// itself was aborted (2PC failpoint) and everything rolled back. A
  /// writer is aborted and refused (InvalidArgument) while
  /// wal_recovery_pending().
  Status CommitTxn(ShardedTransaction* txn);

  /// Aborts every participant shard (per-shard undo-log rollback).
  Status AbortTxn(ShardedTransaction* txn);

  /// CommitTxn through the coordinator's group-commit pipeline (the
  /// Session API's commit path): fast-path members coalesce their
  /// in-flight-registry traffic, 2PC members share ONE coordinator
  /// commit-mutex section for the whole batch. Read-only transactions
  /// bypass the pipeline.
  Status CommitTxnGrouped(ShardedTransaction* txn);

  /// Group-commit batch cap, accumulation window / counters
  /// (coordinator pipeline).
  void SetGroupCommitMaxBatch(uint32_t n);
  void SetGroupCommitWindow(uint64_t nanos);
  GroupCommitStats group_commit_stats() const;

  /// Opens a Session on this engine (see engine/session.h).
  SessionT<ShardedDatabase> OpenSession();

  // --- Object operations (legacy, non-transactional path) ---
  //
  // Like Database: the public forms are the single-threaded legacy path;
  // transactional operations go through Session/Transaction
  // (engine/session.h), which drives the private overloads below.

  /// Creates an object on the next shard in round-robin order; its oid
  /// routes back to that shard by the allocation contract.
  Result<Oid> CreateObject(ClassId class_id) {
    return CreateObject(nullptr, class_id);
  }

  Result<Object> GetObject(Oid oid) { return GetObject(nullptr, oid); }

  Result<Object> PeekObject(Oid oid);

  /// Database::SetReference semantics across shards (symmetric backref
  /// maintenance, validate-before-write, NoSpace on a full backref page).
  Status SetReference(Oid from, uint32_t slot, Oid to) {
    return SetReference(nullptr, from, slot, to);
  }

  /// Link crossing routed to the *target's* shard: its observer records
  /// the crossing (cross-shard crossings are charged to the destination).
  Result<Object> CrossLink(Oid from, Oid to, RefTypeId type, bool reverse) {
    return CrossLink(nullptr, from, to, type, reverse);
  }

  Status PutObject(const Object& object) { return PutObject(nullptr, object); }

  /// Database::DeleteObject semantics across shards: the whole neighbor-
  /// hood is X-locked, remote neighbors are unlinked here, then the
  /// owning shard deletes the record and patches its local neighbors.
  Status DeleteObject(Oid oid) { return DeleteObject(nullptr, oid); }

  /// Attaches \p observer to every shard. Per-shard callbacks are
  /// serialized per shard only, so an observer shared across shards must
  /// tolerate concurrent invocation — clustering policies should instead
  /// be attached per shard (shard(k)->SetObserver), matching per-shard
  /// reorganization.
  void SetObserver(AccessObserver* observer);

  /// Legacy observer transaction brackets, forwarded to every shard.
  void BeginTransaction();
  void EndTransaction();

  /// Cold cache on every shard.
  Status ColdRestart();

  uint64_t object_count() const;

  /// Class extent across all shards (ascending oid order, so root pools
  /// and Scan walks are identical for every shard count).
  std::vector<Oid> ExtentSnapshot(ClassId class_id);

  /// Snapshot-consistent extent: per-shard membership filtered through
  /// each shard's version store at \p txn's global snapshot point (see
  /// Database::ExtentSnapshot(ClassId, TransactionContext*)). SI writers
  /// filter like readers; OCC transactions record each shard's extent
  /// version for commit-time phantom validation (non-const for exactly
  /// that reason).
  std::vector<Oid> ExtentSnapshot(ClassId class_id, ShardedTransaction* txn);

  // --- Write-ahead log (real durability; see src/wal/) ---

  /// True when StorageOptions::wal_path was set and every log opened:
  /// shard k logs to "<wal_path>.shard<k>", the coordinator's 2PC commit
  /// markers go to "<wal_path>.coord".
  bool wal_enabled() const { return coord_wal_ != nullptr; }

  /// OK, or why some log configured via StorageOptions::wal_path could
  /// not be opened (first failure across the coordinator log and the
  /// shards). Writer commits fail with this status instead of
  /// acknowledging without durability.
  Status wal_open_status() const;

  /// True while any shard log or the coordinator log holds commits of an
  /// earlier run that wal::RecoverShardedDatabase has not replayed yet
  /// (see Database::wal_recovery_pending).
  bool wal_recovery_pending() const;

  /// Lifts the refusal on every shard; called by recovery after replay.
  void MarkWalRecovered();

  /// All live oids across all shards, ascending.
  std::vector<Oid> LiveOidsSnapshot();

  bool ContainsObject(Oid oid);

  /// One version-GC pass on every shard; returns versions reclaimed.
  uint64_t CollectVersionGarbage();

  // --- Uniform engine surface (see oodb/database.h) ---

  using TxnHandle = ShardedTransaction;

  /// Simulated time: think latency plus every shard's charged I/O.
  uint64_t SimNowNanos() const;
  void AdvanceSimClock(uint64_t nanos) { think_clock_.Advance(nanos); }

  IoCounters IoCountersFor(IoScope scope) const;
  IoScope io_scope() const { return shards_[0]->io_scope(); }
  void SetIoScope(IoScope scope);
  BufferPoolStats PoolStats() const;
  ObjectStoreStats StoreStats() const;
  Status FlushPools();

  /// Advisory batch cache-warm (see Database::PrefetchObjects):
  /// partitions \p oids by owning shard and issues each shard's misses as
  /// one overlapped batch. Every shard's pool shares the deployment's one
  /// I/O worker group, so the batches overlap across shards too.
  Status PrefetchObjects(std::span<const Oid> oids);

  const StorageOptions& options() const { return base_options_; }

  /// Re-adopts shard 0's schema descriptors as the master copy —
  /// LoadShardedSnapshot calls this after per-shard loads installed the
  /// persisted schema directly on the shards.
  void SetMasterSchemaFromShards() { schema_ = shards_[0]->schema(); }

 private:
  // The session layer is the only public route to the transactional
  // object operations (same friendship as on Database).
  template <typename DB>
  friend class SessionT;
  template <typename DB>
  friend class TransactionT;

  // --- Transactional object operations (session-internal) ---
  Result<Oid> CreateObject(ShardedTransaction* txn, ClassId class_id);
  Result<Object> GetObject(ShardedTransaction* txn, Oid oid);
  Status SetReference(ShardedTransaction* txn, Oid from, uint32_t slot,
                      Oid to);
  Result<Object> CrossLink(ShardedTransaction* txn, Oid from, Oid to,
                           RefTypeId type, bool reverse);
  Status PutObject(ShardedTransaction* txn, const Object& object);
  Status DeleteObject(ShardedTransaction* txn, Oid oid);

  /// Batched read (Transaction::GetMany): one ascending-oid S-lock pass
  /// across the owning shards' managers, then per-oid reads in input
  /// order. MVCC readers resolve through their per-shard ReadViews.
  Status GetObjectsBatched(ShardedTransaction* txn,
                           std::span<const Oid> oids,
                           std::vector<Object>* out);

  /// Batched write-footprint acquisition (Transaction::Apply): X-locks
  /// in ascending global oid order through each owner's manager.
  Status AcquireWriteFootprint(ShardedTransaction* txn,
                               std::vector<Oid> oids);

  /// Lazily opens shard \p k's participant context (nullptr passthrough
  /// on the legacy path).
  TransactionContext* ContextFor(ShardedTransaction* txn, uint32_t k);

  /// Rejects writes through read-only sharded transactions.
  Status RefuseReadOnly(const ShardedTransaction* txn, const char* op);

  /// Rejects SetReference/DeleteObject under SI/OCC (NotSupported): their
  /// cross-shard choreography locks-then-writes eagerly, which the
  /// buffered-write algorithms cannot express (same refusal as
  /// Database::RefuseNonLocking on the single store).
  Status RefuseNonLocking(const ShardedTransaction* txn, const char* op);

  /// Rejects object operations through a finished sharded transaction.
  Status RefuseFinished(const ShardedTransaction* txn, const char* op);

  /// Database::RefuseUnrecoveredWal for a sharded writer: aborts every
  /// participant and returns InvalidArgument while wal_recovery_pending().
  Status RefuseUnrecoveredWal(ShardedTransaction* txn);

  StorageOptions base_options_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Database>> shards_;
  /// Coordinator commit-marker log ("<wal_path>.coord"). Declared before
  /// coordinator_ (which holds a raw pointer to it) so the coordinator
  /// is destroyed first.
  std::unique_ptr<wal::WalWriter> coord_wal_;
  Status coord_wal_status_;
  /// The coordinator log's share of wal_recovery_pending() (the shards
  /// track their own logs).
  std::atomic<bool> coord_recovery_pending_{false};
  std::unique_ptr<CrossShardCoordinator> coordinator_;
  /// Coordinator gauge-callback registrations (db.coord.*). Declared
  /// after coordinator_ so it is destroyed (unregistered) first; the
  /// shards' own gauges are owned by each Database.
  obs::ScopedCallbacks obs_callbacks_;
  Schema schema_;
  SimClock think_clock_;
  std::atomic<uint64_t> create_cursor_{0};  ///< Round-robin creation.
  std::atomic<TxnId> next_txn_id_{1};       ///< Deployment-wide txn ids.
};

/// \brief Saves every shard to "<path>.shard<k>" (generate-once campaign
/// workflows). Same contract as SaveSnapshot: no transaction may hold
/// locks; each shard quiesces individually.
Status SaveShardedSnapshot(ShardedDatabase* db, const std::string& path);

/// \brief Loads "<path>.shard<k>" into every shard of a freshly
/// constructed ShardedDatabase with the *same shard count* the snapshot
/// was saved with, then refreshes the master schema.
Status LoadShardedSnapshot(ShardedDatabase* db, const std::string& path);

}  // namespace ocb

#endif  // OCB_SHARDING_SHARDED_DATABASE_H_
