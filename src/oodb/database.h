/// \file database.h
/// \brief The object-database facade: schema + object store + access hooks.
///
/// Database plays the role Texas plays in the paper: the OODB under test.
/// It owns the whole storage stack (SimClock → DiskSim → BufferPool →
/// ObjectStore), exposes typed object operations, and notifies an
/// AccessObserver (the clustering policy) of every object access and every
/// inter-object link crossing — the raw signal DSTC's observation phase
/// consumes.
///
/// Concurrency model (multi-user mode, paper §3.1/§3.3):
///
///   * *Transactional path* — BeginTxn hands out a TransactionContext;
///     the txn overloads of the object operations acquire object-
///     granularity S/X locks through a strict-2PL LockManager, log
///     pre-images into an undo log, and hold everything until CommitTxn
///     (release) or AbortTxn (rollback + release). Conflicting CLIENTN
///     clients therefore interleave with real isolation; a deadlock
///     aborts exactly one victim, the transaction whose wait would close
///     the cycle (Status::Aborted).
///   * *MVCC snapshot readers* — BeginTxn(TxnMode::kSnapshotRead) instead
///     pins a ReadView at the current commit timestamp. Reads of such a
///     transaction bypass the lock manager entirely and resolve through
///     the VersionStore — no lock waits, no deadlock aborts, repeatable
///     reads (see SnapshotRead for the read-validate protocol that keeps
///     this sound without a global latch).
///   * *Legacy path* — the historical non-txn signatures remain: no object
///     locks, no undo logging. Generators, reorganizers and the
///     single-client benches use this path single-threaded. Legacy writes
///     bypass the version store, so snapshot readers must not run
///     concurrently with them — the benches never mix the two. Legacy
///     multi-object writes serialize on one mutex, since they have no
///     object locks to make them atomic.
///
/// Lock/latch ordering: locks before latches, catalog latch before page
/// latches, strictly top-down — the complete hierarchy (including the
/// shard-level rules a ShardedDatabase adds on top) is documented once,
/// in ARCHITECTURE.md §"Ordering rules"; this header intentionally no
/// longer duplicates it.
///
/// Reorganizers and snapshot save/load take QuiesceGuard: it serializes
/// them against each other and drains every in-flight page pin
/// (BufferPool::BeginQuiesce) before handing the owner exclusive physical
/// access.
///
/// A Database is also the unit of *sharding*: ShardedDatabase
/// (src/sharding/) composes N of them, each a complete store with its own
/// lock manager, version store, buffer pool and disk, and coordinates
/// cross-shard transactions with two-phase commit through the
/// PrepareTxn/CommitTxnAt/AbortTxnAt entry points below.

#ifndef OCB_OODB_DATABASE_H_
#define OCB_OODB_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "concurrency/commit_pipeline.h"
#include "concurrency/lock_manager.h"
#include "concurrency/read_view.h"
#include "concurrency/transaction_context.h"
#include "concurrency/version_store.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "oodb/object.h"
#include "oodb/schema.h"
#include "storage/buffer_pool.h"
#include "storage/disk_sim.h"
#include "storage/latch.h"
#include "storage/object_store.h"
#include "storage/storage_options.h"
#include "util/sim_clock.h"
#include "util/status.h"
#include "util/sync.h"
#include "wal/wal_format.h"

namespace ocb {

namespace wal {
class WalWriter;
}  // namespace wal

// The public Session API layer (engine/session.h). Sessions and their
// RAII transactions are the only public route to transactional object
// operations; the raw TransactionContext overloads below are private,
// befriended to this layer and to the sharding facade.
template <typename DB>
class SessionT;
template <typename DB>
class TransactionT;
class ShardedDatabase;

/// \brief Hook interface fed by the Database on every access; implemented
/// by clustering policies (and by test spies).
///
/// Callbacks are serialized by the Database (one observer mutex), so
/// implementations need no internal locking against each other — but they
/// must not call back into the Database from inside a callback.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;

  /// A workload transaction is starting / has ended.
  virtual void OnTransactionBegin() {}
  virtual void OnTransactionEnd() {}

  /// A workload transaction rolled back: observations gathered since the
  /// matching OnTransactionBegin describe accesses that logically never
  /// happened, so learning policies should discard them. Default no-op.
  virtual void OnTransactionAbort() {}

  /// Object \p oid was read.
  virtual void OnObjectAccess(Oid oid) { (void)oid; }

  /// The workload dereferenced the link \p from → \p to through a reference
  /// slot of type \p type (forward) or a backward reference (reverse).
  virtual void OnLinkCross(Oid from, Oid to, RefTypeId type, bool reverse) {
    (void)from;
    (void)to;
    (void)type;
    (void)reverse;
  }
};

/// \brief The OODB under benchmark.
class Database {
 public:
  explicit Database(const StorageOptions& options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// \brief Exclusive physical access for reorganizers and snapshot
  /// save/load (the only surviving form of the old facade big-latch).
  ///
  /// Construction serializes against other QuiesceGuards (recursive: one
  /// thread may nest them) and then drains every in-flight page pin —
  /// other threads' FetchPage calls park *before* pinning anything until
  /// destruction, while threads mid multi-page operation finish first.
  /// The owner may use every Database and substrate API freely; logical
  /// lock state (2PL) is NOT affected — callers that need "no uncommitted
  /// writes" (SaveSnapshot) must additionally check the lock manager.
  class QuiesceGuard {
   public:
    explicit QuiesceGuard(Database* db) : db_(db) {
      db_->reorg_mu_.lock();
      db_->pool_->BeginQuiesce();
    }
    ~QuiesceGuard() {
      db_->pool_->EndQuiesce();
      db_->reorg_mu_.unlock();
    }
    QuiesceGuard(const QuiesceGuard&) = delete;
    QuiesceGuard& operator=(const QuiesceGuard&) = delete;

   private:
    // Declared before db_ is used in the body sequence: the span's start
    // stamp is taken at member init (before BeginQuiesce drains pins) and
    // its event is recorded at member destruction (after EndQuiesce), so
    // the trace span covers the whole exclusive window including drain.
    obs::TraceSpan span_{"quiesce"};
    Database* db_;
  };

  /// Installs the schema (generator output). Must precede object creation.
  void SetSchema(Schema schema);

  Schema& schema() { return schema_; }
  const Schema& schema() const { return schema_; }

  // --- Transaction lifecycle (concurrency-control subsystem) ---

  /// Starts a transaction: allocates a TransactionContext and fires
  /// OnTransactionBegin. Pass the context to the txn overloads below;
  /// finish with CommitTxn or AbortTxn (mandatory — locks are held until
  /// then). \p mode picks how it runs (see TxnMode):
  ///
  ///   * kSnapshotRead — a ReadView is pinned at the current commit
  ///     timestamp, reads bypass the lock manager (never blocking, never
  ///     deadlocking) and resolve through the version store, and every
  ///     write operation is refused with InvalidArgument. CommitTxn and
  ///     AbortTxn both close the ReadView.
  ///   * k2PL (default) — the locking path.
  ///   * kSI — a ReadView is pinned at begin exactly like a reader's;
  ///     reads resolve against it (plus the transaction's own writes),
  ///     Put is buffered, and commit validates first-committer-wins: any
  ///     object in the write set committed by someone else since the
  ///     snapshot aborts this transaction with WriteConflict.
  ///   * kOCC — no S locks and no pinned view: reads record the object's
  ///     last committed-write timestamp, commit X-locks the write set in
  ///     ascending oid order, revalidates every read stamp (plus extent
  ///     versions for scans), then commits as an ordinary writer.
  ///     Read-set or phantom invalidation is WriteConflict.
  ///
  /// Under SI/OCC, SetReference and DeleteObject are refused with
  /// NotSupported (their multi-object choreography needs 2PL's eager
  /// footprint); CreateObject stays eager under a never-blocking X lock
  /// on the fresh oid.
  std::unique_ptr<TransactionContext> BeginTxn(TxnMode mode = TxnMode::k2PL);

  /// BeginTxn with a *caller-issued* transaction id. The sharding facade
  /// creates every participant context of one sharded transaction with
  /// the same globally unique id, which is what lets the shards' lock
  /// managers link their wait edges in the coordinator's GlobalWaitGraph
  /// (see wait_graph.h) — and is also why the ids must come from one
  /// deployment-wide counter, never this store's own.
  std::unique_ptr<TransactionContext> BeginTxnWithId(
      TxnId id, TxnMode mode = TxnMode::k2PL);

  /// Commits: stamps the transaction's published versions with a fresh
  /// commit timestamp (making them visible history for snapshot readers),
  /// releases all locks, fires OnTransactionEnd. The undo log is
  /// discarded.
  Status CommitTxn(TransactionContext* txn);

  /// Aborts: replays the undo log in reverse (restoring pre-images and
  /// deleting created objects), seals the transaction's published versions
  /// (see VersionStore::StampAborted), releases all locks, fires
  /// OnTransactionAbort. Idempotent: aborting an already-aborted
  /// transaction returns OK; aborting a committed one is
  /// InvalidArgument.
  Status AbortTxn(TransactionContext* txn);

  /// CommitTxn through the group-commit pipeline (the Session API's
  /// commit path): writers enqueue and a batch leader performs the
  /// serialized commit work — timestamp allocation and version stamping
  /// under ONE version-store commit-mutex acquisition, one observer pass
  /// — for the whole batch (see commit_pipeline.h). Semantically
  /// identical to CommitTxn per transaction; read-only transactions
  /// bypass the pipeline (they have nothing to amortize).
  Status CommitTxnGrouped(TransactionContext* txn);

  /// Group-commit batch-size cap (1 = per-transaction commits through
  /// the same path) and pipeline counters. The cap is applied per run
  /// (ProtocolRunner forwards WorkloadParameters::group_commit_max_batch).
  void SetGroupCommitMaxBatch(uint32_t n) {
    commit_pipeline_.set_max_batch(n);
  }
  /// Accumulation window (GroupCommitOptions::window_nanos; default 0 —
  /// an uncontended commit never waits).
  void SetGroupCommitWindow(uint64_t nanos) {
    commit_pipeline_.set_window_nanos(nanos);
  }
  GroupCommitStats group_commit_stats() const {
    return commit_pipeline_.stats();
  }

  /// Opens a Session on this engine — the entry point of the public
  /// transactional API (defined in engine/session.h; include it to
  /// call this).
  SessionT<Database> OpenSession();

  // --- Sharded-transaction entry points (CrossShardCoordinator) ---
  //
  // A ShardedDatabase transaction owns one TransactionContext per shard
  // it touched. Single-shard transactions commit through CommitTxnAt
  // directly (the 2PC fast path: no prepare, no coordinator state);
  // multi-shard ones run two-phase commit: PrepareTxn on every writer
  // participant, then — under the coordinator's commit mutex — one
  // globally drawn timestamp is stamped into every shard via CommitTxnAt,
  // which is what keeps cross-shard MVCC snapshots consistent (a reader
  // either sees every shard's half of the commit or none). All stamping
  // on a sharded member store MUST use the ...At forms with
  // coordinator-issued timestamps; mixing in locally drawn ones would
  // interleave two timestamp axes in the same version chains.

  /// Phase 1 of 2PC: verifies the transaction can commit and freezes it
  /// in TxnState::kPrepared — writes stay applied, locks stay held, and
  /// the only legal exits are CommitTxnAt (coordinator decided commit)
  /// and AbortTxn/AbortTxnAt (coordinator decided abort). Under strict
  /// 2PL with in-place writes there is nothing left to validate, so
  /// prepare can only fail for lifecycle reasons; it exists as the
  /// explicit promise point the coordinator's atomicity argument needs.
  /// SI/OCC participants *do* validate here: prepare runs FinalizeCc —
  /// write-set locking, read/write-set validation, buffered-write apply
  /// — and a validation loss surfaces as WriteConflict (the coordinator
  /// then aborts every participant; nothing of this transaction was
  /// logged or stamped). Refused for read-only transactions.
  Status PrepareTxn(TransactionContext* txn);

  /// Converts an SI/OCC transaction into an ordinary 2PL writer at the
  /// commit point (no-op for 2PL transactions and when already run):
  ///
  ///   1. X-lock the buffered write set in ascending oid order (the
  ///      write buffer is an ordered map) — deadlock-free against other
  ///      finalizers; a conflict with a 2PL writer can still return
  ///      Aborted.
  ///   2. Validate. SI: first-committer-wins — every written object's
  ///      last committed-write timestamp must not exceed the snapshot.
  ///      OCC (Silo): every read stamp unchanged AND, for read-only
  ///      members of the read set, not X-locked by another transaction
  ///      (the locked-tuple rule), plus extent version counters
  ///      unchanged (phantom protection for scans).
  ///   3. Apply the buffered writes in place under the held X locks,
  ///      publishing pre-images / undo exactly like a 2PL Put.
  ///
  /// A validation loss returns WriteConflict with the transaction still
  /// active and its locks held — the caller aborts it (locks must stay
  /// until the abort's rollback for the same reason as 2PL's). After
  /// success the commit paths need no further CC awareness: the undo log
  /// carries the writes, WAL/stamping/release proceed unchanged. Public
  /// for the coordinator, whose fast path must finalize before
  /// WalAppendTxn (the redo record is built from the undo log the apply
  /// phase populates); local commit paths call it internally.
  Status FinalizeCc(TransactionContext* txn);

  /// CommitTxn with a coordinator-issued commit timestamp: stamps the
  /// transaction's pending versions with \p ts (VersionStore::
  /// StampCommittedAt) instead of drawing a local one. Accepts active
  /// (fast path) and prepared (2PC phase 2) transactions.
  Status CommitTxnAt(TransactionContext* txn, CommitTs ts);

  /// AbortTxn with a coordinator-issued *seal* timestamp for the
  /// transaction's published versions. Accepts active and prepared
  /// transactions.
  Status AbortTxnAt(TransactionContext* txn, CommitTs ts);

  /// BeginTxn(kSnapshotRead) pinned at a *caller-chosen* snapshot
  /// timestamp instead of this store's own latest commit: the
  /// ShardedDatabase opens one global snapshot point S and registers a
  /// view at S on every shard so a sharded reader resolves all its reads
  /// against one cross-shard instant. \p id follows the BeginTxnWithId
  /// contract.
  std::unique_ptr<TransactionContext> BeginSnapshotTxnAt(CommitTs ts,
                                                         TxnId id);

  /// A snapshot-isolation *writer* participant pinned at a caller-chosen
  /// snapshot: like BeginSnapshotTxnAt, but read-write in
  /// TxnMode::kSI. The ShardedDatabase opens every shard's
  /// view of one SI transaction at the same global snapshot point under
  /// the coordinator's commit mutex (lazily opening them at first touch
  /// would race each shard's GC: a view registered late at an old
  /// timestamp cannot resurrect already-reclaimed versions).
  std::unique_ptr<TransactionContext> BeginSiWriterTxnAt(CommitTs ts,
                                                         TxnId id);

  /// Direct lock-manager access for the sharding facade, which must
  /// acquire locks on objects *before* reading them to choreograph
  /// multi-shard operations (same contract as the internal paths: blocks,
  /// may return Aborted, no latch may be held across the call). No-op
  /// when \p txn is null.
  Status AcquireLock(TransactionContext* txn, Oid oid, LockMode mode) {
    return LockFor(txn, oid, mode);
  }

  // --- Object operations (legacy, non-transactional path) ---
  //
  // Single-threaded callers only (generators, reorganizers, the CLIENTN=1
  // benches): no object locks, no undo logging, seed-exact semantics.
  // *Transactional* object operations are not public: clients open a
  // Session (engine/session.h) whose RAII Transaction exposes Get/Put/
  // SetReference/Delete/Create plus the batched GetMany/Apply/Traverse —
  // the session layer is a friend and drives the private overloads below.

  /// Creates an instance of \p class_id with all ORef slots null and the
  /// class's InstanceSize of filler. Appends it to the class extent.
  Result<Oid> CreateObject(ClassId class_id) {
    return CreateObject(nullptr, class_id);
  }

  /// Reads and decodes an object. Fires OnObjectAccess.
  Result<Object> GetObject(Oid oid) { return GetObject(nullptr, oid); }

  /// Reads an object *silently* (no observer callback, no statistics, no
  /// lock) — used by generators and reorganizers that must not pollute the
  /// clustering signal.
  Result<Object> PeekObject(Oid oid);

  /// Sets ORef slot \p slot of \p from to \p to and symmetrically appends
  /// \p from to the BackRef array of \p to (paper: "Reverse references are
  /// instanciated at the same time the direct links are"). A previous
  /// target's backref is unlinked first.
  Status SetReference(Oid from, uint32_t slot, Oid to) {
    return SetReference(nullptr, from, slot, to);
  }

  /// Follows a reference during a traversal: fires OnLinkCross(from, to)
  /// then reads and returns the target object.
  Result<Object> CrossLink(Oid from, Oid to, RefTypeId type, bool reverse) {
    return CrossLink(nullptr, from, to, type, reverse);
  }

  /// Rewrites an object's mutable parts (used by update-style workloads).
  Status PutObject(const Object& object) { return PutObject(nullptr, object); }

  /// Deletes an object and unlinks it from neighbors' ORef/BackRef arrays
  /// and from its class extent.
  Status DeleteObject(Oid oid) { return DeleteObject(nullptr, oid); }

  /// Observer management (pass nullptr to detach). Detaching is
  /// synchronous: no callback runs after SetObserver(nullptr) returns.
  void SetObserver(AccessObserver* observer);

  /// Notifies transaction boundaries to the observer (legacy, non-2PL
  /// path; the txn lifecycle above fires these itself).
  void BeginTransaction();
  void EndTransaction();

  /// Flushes dirty pages and empties the buffer pool — a cold cache, as
  /// between the paper's generation and cold-run phases. Quiesces first.
  /// Refuses (InvalidArgument) while any transaction holds object locks
  /// or any ReadView is open — mirroring the SaveSnapshot contract: the
  /// flush would persist uncommitted in-place writes, and invalidation
  /// yanks pages snapshot readers may still fall through to.
  Status ColdRestart();

  // --- Write-ahead log (real durability; see src/wal/) ---
  //
  // Enabled by StorageOptions::wal_path. Commit paths append one redo
  // record per committed writer and the batch leader forces once per
  // group-commit batch, before any member is acknowledged. Recovery
  // (wal::RecoverDatabase) replays the log over the newest loadable
  // checkpoint snapshot.

  /// True when this store writes a real WAL.
  bool wal_enabled() const { return wal_ != nullptr; }

  /// The WAL writer (nullptr when disabled). SaveSnapshot appends its
  /// checkpoint record through this; tests read append/force counters.
  wal::WalWriter* wal() { return wal_.get(); }

  /// OK, or why the WAL configured in StorageOptions::wal_path could not
  /// be opened (the constructor cannot fail; commits on a store whose WAL
  /// failed to open return this error instead of acknowledging).
  Status wal_open_status() const { return wal_open_status_; }

  /// True when the WAL held commits of an earlier run at open and
  /// wal::RecoverDatabase has not replayed them yet. Writer commits are
  /// refused (InvalidArgument) meanwhile: appending behind unreplayed
  /// records would mix two runs' timestamp axes in one log.
  bool wal_recovery_pending() const {
    return wal_recovery_pending_.load(std::memory_order_acquire);
  }

  /// Lifts the refusal above; called by recovery once replay finished.
  void MarkWalRecovered() {
    wal_recovery_pending_.store(false, std::memory_order_release);
  }

  /// Appends (without forcing) the redo record of \p txn's writes at
  /// commit timestamp \p ts. The transaction must still hold its locks
  /// and its undo log must be intact (call before CommitTxnAt, which
  /// clears it). \p coordinated marks the record as owned by a 2PC
  /// commit: replay then requires a matching coordinator marker. The
  /// CrossShardCoordinator is the only external caller.
  Status WalAppendTxn(TransactionContext* txn, CommitTs ts, bool coordinated);

  /// Forces this store's WAL (no-op when disabled). The coordinator calls
  /// this once per cross-shard batch on every participating writer shard,
  /// before forcing its own marker log.
  Status WalForce();

  /// Applies one replayed redo operation directly to the store: upsert
  /// installs the post-image (insert-or-update, maintaining the class
  /// extent), delete removes the object if present. Idempotent — a
  /// restart during recovery replays the same records harmlessly.
  /// Recovery-only: no locks, no undo, no versioning.
  Status ApplyRedoOp(const wal::WalOp& op);

  // --- Automatic checkpointing ---
  //
  // With a WAL and a nonzero StorageOptions::checkpoint_interval_commits,
  // a background thread runs SaveSnapshot every N writer commits,
  // alternating between "<wal_path>.autockpt0/1" so a crash mid-save can
  // never destroy the only loadable checkpoint. SaveSnapshot's own safety
  // rules stay in force: an attempt while transactions hold object locks
  // is refused (counted below) and retried on the next commit.

  /// Automatic checkpoints completed so far.
  uint64_t checkpoints_taken() const {
    return checkpoints_taken_.load(std::memory_order_relaxed);
  }
  /// Automatic checkpoint attempts refused (locks were held).
  uint64_t checkpoints_refused() const {
    return checkpoints_refused_.load(std::memory_order_relaxed);
  }

  // --- Uniform engine surface ---
  //
  // Database and ShardedDatabase expose this identically (the sharded
  // form aggregates over its shards); the templated OCB execution layer
  // (generator, TransactionExecutorT, ProtocolRunnerT, RunMultiClient)
  // is written against it and therefore runs unchanged on either engine.
  // See ARCHITECTURE.md §"The engine surface".

  /// The transaction-handle type BeginTxn hands out.
  using TxnHandle = TransactionContext;

  /// Current simulated time (cumulative charged I/O + think latency).
  uint64_t SimNowNanos() const { return clock_.now_nanos(); }

  /// Charges think-time latency to the simulated clock.
  void AdvanceSimClock(uint64_t nanos) { clock_.Advance(nanos); }

  /// I/O counters of one accounting scope.
  IoCounters IoCountersFor(IoScope scope) const {
    return disk_->counters(scope);
  }

  /// Current / new I/O accounting scope (see ScopedEngineIoScope).
  IoScope io_scope() const { return disk_->scope(); }
  void SetIoScope(IoScope scope) { disk_->set_scope(scope); }

  /// Aggregate buffer-pool counters.
  BufferPoolStats PoolStats() const { return pool_->stats(); }

  /// Aggregate object-store placement statistics.
  ObjectStoreStats StoreStats() const { return store_->stats(); }

  /// Writes every dirty page back (generation epilogue). Drains the
  /// background write-back queue first.
  Status FlushPools() { return pool_->FlushAll(); }

  /// Advisory batch cache-warm for an upcoming multi-object read:
  /// resolves \p oids to their pages and issues every buffer-pool miss as
  /// ONE overlapped batch (ObjectStore::Prefetch → BufferPool::FetchMany)
  /// instead of paying the misses one device latency at a time. Purely a
  /// hint — unknown oids are skipped and errors resurface on the real
  /// read.
  Status PrefetchObjects(std::span<const Oid> oids) {
    return store_->Prefetch(oids);
  }

  // --- Substrate access (benchmark harness & clustering reorganizers) ---
  ObjectStore* object_store() { return store_.get(); }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskSim* disk() { return disk_.get(); }
  SimClock* sim_clock() { return &clock_; }
  LockManager* lock_manager() { return &lock_manager_; }
  VersionStore* version_store() { return &version_store_; }
  ReadViewRegistry* read_views() { return &read_views_; }
  const StorageOptions& options() const { return options_; }

  /// Runs one version-store GC pass right now (the background thread does
  /// this periodically; tests call it for deterministic reclamation).
  /// Returns the number of versions reclaimed.
  uint64_t CollectVersionGarbage() {
    return version_store_.GarbageCollect(read_views_);
  }

  /// Number of live objects.
  uint64_t object_count() const;

  // --- Catalog snapshots (safe under concurrent clients) ---
  //
  // Class extents mutate under the catalog latch; these accessors copy
  // them under it so multi-threaded callers (the transaction executor,
  // protocol runners, stress tests) never iterate a vector another client
  // is growing. The returned snapshot may be stale the moment it is
  // returned — callers already tolerate vanished objects (NotFound) by
  // construction.

  /// Copy of class \p class_id's extent.
  std::vector<Oid> ExtentSnapshot(ClassId class_id);

  /// Extent copy filtered through \p txn's visibility: for an MVCC
  /// snapshot reader — and an SI writer, whose reads come from its
  /// pinned view — members the version store proves did not exist at
  /// the view's timestamp (created after it) are dropped, so a snapshot
  /// Scan never observes an object born after its instant. An OCC
  /// transaction sees the plain copy but records the class's extent
  /// version (see ExtentVersion) for commit-time phantom validation.
  /// Locking and legacy transactions (and txn == nullptr) see the plain
  /// copy — their reads target current state by construction.
  std::vector<Oid> ExtentSnapshot(ClassId class_id, TransactionContext* txn);

  /// Monotonic per-class extent-membership version: bumped under the
  /// exclusive catalog latch by every membership mutation (create,
  /// delete, abort rollback of either, redo replay). OCC scans record it
  /// and revalidate at commit — an unchanged counter proves no phantom
  /// joined or left the extent between scan and commit.
  uint64_t ExtentVersion(ClassId class_id);

  /// Commit-time validation losses, per algorithm (monotonic; also
  /// exported as the gauges db.cc.si_conflicts / db.cc.occ_conflicts).
  /// OCC fail-fast read-set aborts count in occ_conflicts too.
  uint64_t si_conflicts() const {
    return si_conflicts_.load(std::memory_order_relaxed);
  }
  uint64_t occ_conflicts() const {
    return occ_conflicts_.load(std::memory_order_relaxed);
  }

  /// Copy of all live oids (the object table is internally striped; the
  /// copy is consistent-enough for root-pool maintenance).
  std::vector<Oid> LiveOidsSnapshot();

  /// True when \p oid is currently live.
  bool ContainsObject(Oid oid);

 private:
  // The session layer (SessionT/TransactionT drive the transactional
  // object operations) and the sharding facade (choreographs cross-shard
  // footprints through its shards' private overloads) are the only
  // callers of the raw TransactionContext object operations.
  template <typename DB>
  friend class SessionT;
  template <typename DB>
  friend class TransactionT;
  friend class ShardedDatabase;

  // --- Transactional object operations (session-internal) ---
  //
  // Each is the transactional twin of the public legacy form: it takes a
  // TransactionContext and participates in 2PL (S lock for reads, X lock
  // for writes, undo logging); a Status::Aborted return means the
  // transaction was chosen as a deadlock victim (or timed out) and the
  // caller must AbortTxn. A null context selects the legacy path.
  // Operations through a finished (committed/aborted/prepared) context
  // are refused with InvalidArgument — never UB.

  Result<Oid> CreateObject(TransactionContext* txn, ClassId class_id);
  Result<Object> GetObject(TransactionContext* txn, Oid oid);
  Status SetReference(TransactionContext* txn, Oid from, uint32_t slot,
                      Oid to);
  Result<Object> CrossLink(TransactionContext* txn, Oid from, Oid to,
                           RefTypeId type, bool reverse);
  Status PutObject(TransactionContext* txn, const Object& object);
  Status DeleteObject(TransactionContext* txn, Oid oid);

  /// Batched read (Transaction::GetMany): ONE sorted lock-footprint pass
  /// (S locks in ascending oid order — no two GetMany calls can deadlock
  /// each other), one read pass, one observer pass. Objects
  /// append to \p out in input order; vanished oids are skipped
  /// (NotFound is not an error, matching the single-get tolerance of
  /// concurrent deletes). MVCC readers resolve each oid through their
  /// ReadView instead (no locks).
  Status GetObjectsBatched(TransactionContext* txn,
                           std::span<const Oid> oids,
                           std::vector<Object>* out);

  /// Batched write-footprint acquisition (Transaction::Apply): X-locks
  /// every oid in \p oids in ascending order before the batch's
  /// operations run. The per-op calls then re-acquire idempotently and
  /// pick up any dynamic footprint (previous reference targets, delete
  /// neighborhoods).
  Status AcquireWriteFootprint(TransactionContext* txn,
                               std::vector<Oid> oids);

  /// Group-commit batch body (runs on the pipeline leader): stamps every
  /// member's versions via one StampCommittedBatch call, then finishes
  /// each member (state, undo discard, lock release) and fires one
  /// observer pass.
  void CommitBatch(const std::vector<CommitPipeline::Request*>& batch);

  /// Rejects object operations through a finished transaction handle.
  Status RefuseFinished(const TransactionContext* txn, const char* op);

  Result<Object> ReadDecode(Oid oid);
  Status WriteEncoded(Oid oid, const Object& object);

  /// Builds \p txn's redo record at \p ts from its undo log: every oid
  /// the transaction touched maps to an upsert carrying the *current*
  /// store bytes (the post-image — writes are in-place and the X locks
  /// are still held) or to a delete when the object no longer exists.
  wal::WalRecord BuildRedoRecord(TransactionContext* txn, CommitTs ts,
                                 bool coordinated);

  /// Shared commit/abort bodies; \p external_ts == 0 draws local
  /// timestamps (CommitTxn/AbortTxn), nonzero uses the coordinator-issued
  /// one (CommitTxnAt/AbortTxnAt).
  Status CommitTxnInternal(TransactionContext* txn, CommitTs external_ts);
  Status AbortTxnInternal(TransactionContext* txn, CommitTs external_ts);

  /// Lock-free read of one object for an SI or OCC transaction: the
  /// transaction's own writes first (buffered post-image, then its own
  /// in-place creations), then the algorithm's read protocol — SI reads
  /// the pinned snapshot, OCC reads committed-latest inside a stamp-
  /// stability loop and records the stamp in the read set. An OCC
  /// re-read whose stamp changed since the first read fails fast with
  /// WriteConflict (the transaction could never validate).
  Result<Object> OptimisticRead(TransactionContext* txn, Oid oid);

  /// Generalized snapshot read at an explicit read point; SnapshotRead
  /// passes the transaction's pinned view, OCC passes
  /// VersionStore::kReadLatestTs (committed-latest).
  Result<Object> SnapshotReadAt(TransactionContext* txn, Oid oid,
                                CommitTs read_ts);

  /// Refuses a writer commit while the WAL still holds an earlier run's
  /// unreplayed commits: the new records, whose timestamps restart at 1,
  /// would replay interleaved with the old ones. Aborts \p txn and
  /// returns InvalidArgument; OK for readers and once recovered.
  Status RefuseUnrecoveredWal(TransactionContext* txn);

  /// Per-object observer notifications. They return before observer_mu_
  /// when no observer is attached; otherwise they serialize on it.
  void NotifyObjectAccess(Oid oid);
  void NotifyLinkCross(Oid from, Oid to, RefTypeId type, bool reverse);

  /// Appends a kRestore undo record holding \p obj's current encoding and
  /// publishes the same bytes as a pending version in the version store —
  /// once per oid per txn (undo restores the earliest state). The publish
  /// strictly precedes the first in-place write, which is what the
  /// snapshot readers' read-validate protocol relies on. No-op when
  /// \p txn is null.
  void RecordPreImage(TransactionContext* txn, const Object& obj);

  /// Acquires \p mode on \p oid for \p txn via the lock manager; no-op
  /// when \p txn is null. Must be called before any latch is taken (it
  /// blocks).
  Status LockFor(TransactionContext* txn, Oid oid, LockMode mode);

  /// Snapshot read for a read-only txn, without any lock:
  ///
  ///   1. Resolve through the version store; a version newer than the
  ///      ReadView (pending ones count as +infinity) carries the state at
  ///      the snapshot.
  ///   2. Otherwise read the current store state (under the page's S
  ///      latch) and re-check the version store: writers publish their
  ///      pre-image *before* the first in-place write and aborts seal
  ///      (never drop) published versions, so any write racing the store
  ///      read is visible to the second check, which then supplies the
  ///      correct pre-image. An unchanged second check proves the store
  ///      bytes were the state at the snapshot.
  Result<Object> SnapshotRead(TransactionContext* txn, Oid oid);

  /// Rejects write operations issued through a read-only txn.
  Status RefuseReadOnly(const TransactionContext* txn, const char* op);

  /// Rejects the operations SI/OCC do not support (SetReference,
  /// DeleteObject — multi-object choreography needing 2PL's eager
  /// footprint) with typed NotSupported.
  Status RefuseNonLocking(const TransactionContext* txn, const char* op);

  /// Background version-GC loop: wakes every few milliseconds (or when
  /// prodded) and reclaims versions older than the oldest live ReadView.
  void GcLoop();

  /// Tells the auto-checkpoint scheduler \p commits more writer commits
  /// became durable; wakes the thread when the interval fills. No-op when
  /// automatic checkpointing is off.
  void NoteCommitsForCheckpoint(uint64_t commits);

  /// Background auto-checkpoint loop (see "Automatic checkpointing").
  void CheckpointLoop();

  /// Registers this engine's gauge callbacks (db.pool.*, db.lock.*, ...)
  /// with the global metrics registry; no-op when compiled out.
  void RegisterObsCallbacks();

  /// Gauge-callback registrations with the global metrics registry
  /// (db.pool.*, db.lock.*, db.mvcc.*, ... reading the engine's own
  /// atomic stats — the registry never double-counts them). Cleared at
  /// the TOP of ~Database, before any member the callbacks read dies.
  obs::ScopedCallbacks obs_callbacks_;

  StorageOptions options_;
  SimClock clock_;
  std::unique_ptr<DiskSim> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<ObjectStore> store_;
  Schema schema_;
  AccessObserver* observer_ OCB_GUARDED_BY(observer_mu_) = nullptr;
  LockManager lock_manager_;
  VersionStore version_store_;
  ReadViewRegistry read_views_;
  /// Group-commit pipeline behind CommitTxnGrouped; its batch function is
  /// CommitBatch. Touches lock_manager_/version_store_/read_views_, so
  /// it is declared after them.
  CommitPipeline commit_pipeline_;
  /// Real redo log (StorageOptions::wal_path); nullptr when disabled or
  /// when opening failed (see wal_open_status_).
  std::unique_ptr<wal::WalWriter> wal_;
  Status wal_open_status_;
  /// Set when the WAL open found commits of an earlier run; cleared by
  /// MarkWalRecovered (see RefuseUnrecoveredWal).
  std::atomic<bool> wal_recovery_pending_{false};
  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<uint64_t> si_conflicts_{0};   ///< See si_conflicts().
  std::atomic<uint64_t> occ_conflicts_{0};  ///< See occ_conflicts().

  /// Catalog latch: schema/class-extent metadata only (level 2 of the
  /// hierarchy above). Never held across physical I/O. (schema_ itself is
  /// not OCB_GUARDED_BY it: the schema object is frozen before clients
  /// run and the accessors hand out bare references; the latch guards the
  /// mutable extent membership and its version counters.)
  mutable SharedMutex catalog_mu_{lockdep::kCatalogLatchClass};

  /// Per-class extent-membership versions (see ExtentVersion). Guarded
  /// by catalog_mu_, like the extents whose mutations bump them.
  std::unordered_map<ClassId, uint64_t> extent_versions_
      OCB_GUARDED_BY(catalog_mu_);

  /// Serializes observer callbacks (clustering policies are not internally
  /// synchronized).
  Mutex observer_mu_{lockdep::kObserverClass};
  /// observer_ != nullptr, written by SetObserver under observer_mu_: the
  /// per-object notifications' lock-free "nobody is listening" check. A
  /// stale true only costs the lock (observer_ is re-read under it), so a
  /// callback never runs after SetObserver(nullptr) returns.
  std::atomic<bool> observer_attached_{false};

  /// Serializes QuiesceGuard owners (reorganizers, snapshot save/load).
  std::recursive_mutex reorg_mu_;

  /// Serializes legacy (txn == nullptr) writes: without object locks,
  /// their multi-object read-modify-write sequences need it to stay
  /// atomic against each other.
  std::mutex legacy_write_mu_;

  // Background version GC. Started lazily by the first BeginTxn (legacy
  // single-client users never pay for the thread), joined in the
  // destructor — declared last so the thread never outlives the state it
  // touches.
  std::once_flag gc_once_;
  Mutex gc_mu_{lockdep::kGcWakeupClass};
  std::condition_variable_any gc_cv_;
  bool gc_stop_ OCB_GUARDED_BY(gc_mu_) = false;
  std::thread gc_thread_;

  // Automatic checkpointing (started in the constructor when configured,
  // joined in the destructor before any member it reads dies).
  std::atomic<uint64_t> checkpoints_taken_{0};
  std::atomic<uint64_t> checkpoints_refused_{0};
  Mutex ckpt_mu_{lockdep::kCkptWakeupClass};
  std::condition_variable_any ckpt_cv_;
  bool ckpt_stop_ OCB_GUARDED_BY(ckpt_mu_) = false;
  uint64_t ckpt_pending_commits_ OCB_GUARDED_BY(ckpt_mu_) = 0;
  std::thread ckpt_thread_;
};

}  // namespace ocb

#endif  // OCB_OODB_DATABASE_H_
