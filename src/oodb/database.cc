#include "oodb/database.h"

#include <algorithm>
#include <chrono>

#include "oodb/snapshot.h"
#include "util/format.h"
#include "wal/killpoint.h"
#include "wal/wal_writer.h"

namespace ocb {

Database::Database(const StorageOptions& options)
    : options_(options),
      lock_manager_(options.lock_wait_timeout_nanos),
      commit_pipeline_([this](const std::vector<CommitPipeline::Request*>&
                                  batch) { CommitBatch(batch); }) {
  disk_ = std::make_unique<DiskSim>(options_, &clock_);
  pool_ = std::make_unique<BufferPool>(disk_.get(), options_);
  store_ = std::make_unique<ObjectStore>(pool_.get(), options_.first_oid,
                                         options_.oid_stride);
  if (!options_.wal_path.empty()) {
    // Open (or create) the redo log, truncating any torn tail. The
    // constructor cannot fail; a failed open parks the error in
    // wal_open_status_ and every writer commit returns it instead of
    // acknowledging without durability.
    auto wal =
        wal::WalWriter::Open(options_.wal_path, options_.wal_segment_bytes);
    if (wal.ok()) {
      wal_ = std::move(wal).value();
      wal_recovery_pending_.store(wal_->found_commits(),
                                  std::memory_order_release);
    } else {
      wal_open_status_ = wal.status();
    }
  }
  if (wal_ != nullptr && options_.checkpoint_interval_commits > 0) {
    ckpt_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  RegisterObsCallbacks();
}

Database::~Database() {
  // First: stop exporting gauges that read members about to be torn down.
  // Clear() synchronizes with any in-flight registry Snapshot().
  obs_callbacks_.Clear();
  // The checkpoint thread drives SaveSnapshot, which touches the whole
  // store — it must be gone before any teardown begins.
  {
    MutexLock lock(ckpt_mu_);
    ckpt_stop_ = true;
  }
  ckpt_cv_.notify_all();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  {
    MutexLock lock(gc_mu_);
    gc_stop_ = true;
  }
  gc_cv_.notify_all();
  if (gc_thread_.joinable()) gc_thread_.join();
}

void Database::RegisterObsCallbacks() {
#ifndef OCB_OBS_DISABLED
  // Gauge callbacks read the engine's own atomic stats — the single
  // increment sites stay where they are (ISSUE 6, dedupe satellite); the
  // registry only *reads* them at snapshot time. Multiple Databases
  // (shards) registering the same names sum in the snapshot, which is
  // exactly the deployment-wide aggregate the benches want.
  auto& reg = obs_callbacks_;
  reg.Register("db.pool.hits", [this] {
    return pool_->stats().hits.load(std::memory_order_relaxed);
  });
  reg.Register("db.pool.misses", [this] {
    return pool_->stats().misses.load(std::memory_order_relaxed);
  });
  reg.Register("db.pool.evictions", [this] {
    return pool_->stats().evictions.load(std::memory_order_relaxed);
  });
  reg.Register("db.pool.dirty_writebacks", [this] {
    return pool_->stats().dirty_writebacks.load(std::memory_order_relaxed);
  });
  reg.Register("db.disk.reads", [this] {
    return disk_->TotalCounters().reads.load(std::memory_order_relaxed);
  });
  reg.Register("db.disk.writes", [this] {
    return disk_->TotalCounters().writes.load(std::memory_order_relaxed);
  });
  // I/O overlap accounting: serial is what a fully serialized execution
  // would have charged the sim clock, charged is what actually was
  // charged (serial/charged = how far concurrent clients' I/Os overlap).
  reg.Register("db.io.serial_nanos",
               [this] { return disk_->serial_io_nanos(); });
  reg.Register("db.io.charged_nanos",
               [this] { return disk_->charged_io_nanos(); });
  reg.Register("db.store.objects", [this] {
    return store_->stats().objects.load(std::memory_order_relaxed);
  });
  reg.Register("db.store.data_pages", [this] {
    return store_->stats().data_pages.load(std::memory_order_relaxed);
  });
  reg.Register("db.store.relocations", [this] {
    return store_->stats().relocations.load(std::memory_order_relaxed);
  });
  reg.Register("db.store.table_bytes",
               [this] { return store_->table_bytes(); });
  reg.Register("db.lock.acquisitions",
               [this] { return lock_manager_.stats().acquisitions; });
  reg.Register("db.lock.waits",
               [this] { return lock_manager_.stats().waits; });
  reg.Register("db.lock.deadlocks",
               [this] { return lock_manager_.stats().deadlocks; });
  reg.Register("db.lock.timeouts",
               [this] { return lock_manager_.stats().timeouts; });
  reg.Register("db.lock.wait_nanos",
               [this] { return lock_manager_.stats().total_wait_nanos; });
  reg.Register("db.mvcc.versions_published",
               [this] { return version_store_.stats().versions_published; });
  reg.Register("db.mvcc.versions_gced",
               [this] { return version_store_.stats().versions_gced; });
  reg.Register("db.mvcc.gc_passes",
               [this] { return version_store_.stats().gc_passes; });
  reg.Register("db.mvcc.snapshot_hits",
               [this] { return version_store_.stats().snapshot_hits; });
  reg.Register("db.mvcc.live_versions",
               [this] { return version_store_.stats().live_versions; });
  reg.Register("db.groupcommit.commits",
               [this] { return commit_pipeline_.stats().commits; });
  reg.Register("db.groupcommit.batches",
               [this] { return commit_pipeline_.stats().batches; });
  reg.Register("db.groupcommit.grouped_commits",
               [this] { return commit_pipeline_.stats().grouped_commits; });
  reg.Register("db.groupcommit.batch_nanos",
               [this] { return commit_pipeline_.stats().batch_nanos; });
  reg.Register("db.cc.si_conflicts", [this] { return si_conflicts(); });
  reg.Register("db.cc.occ_conflicts", [this] { return occ_conflicts(); });
#endif
}

// TSA exemption: the cv wait unlocks and relocks gc_mu_ mid-function, a
// flow the intraprocedural analysis cannot follow; lockdep still sees
// every transition.
void Database::GcLoop() OCB_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<Mutex> lock(gc_mu_);
  while (!gc_stop_) {
    gc_cv_.wait_for(lock, std::chrono::milliseconds(10));
    if (gc_stop_) break;
    // The pass is cheap when nothing committed since the last one; the
    // version store serializes against OpenSnapshot, so a newborn
    // ReadView can never lose a version it still needs.
    version_store_.GarbageCollect(read_views_);
  }
}

void Database::NoteCommitsForCheckpoint(uint64_t commits) {
  // wal_ and the interval are immutable after construction, so this gate
  // needs no lock; when it passes, the scheduler thread exists.
  if (wal_ == nullptr || options_.checkpoint_interval_commits == 0) return;
  bool wake = false;
  {
    MutexLock lock(ckpt_mu_);
    ckpt_pending_commits_ += commits;
    wake = ckpt_pending_commits_ >= options_.checkpoint_interval_commits;
  }
  if (wake) ckpt_cv_.notify_one();
}

// TSA exemption: cv waits relock ckpt_mu_ mid-function.
void Database::CheckpointLoop() OCB_NO_THREAD_SAFETY_ANALYSIS {
  // Alternate between two snapshot files: a crash mid-save tears at most
  // the file being written, never the previous good checkpoint (recovery
  // skips unloadable snapshots and falls back).
  uint64_t parity = 0;
  std::unique_lock<Mutex> lock(ckpt_mu_);
  for (;;) {
    ckpt_cv_.wait(lock, [&] {
      return ckpt_stop_ ||
             ckpt_pending_commits_ >= options_.checkpoint_interval_commits;
    });
    if (ckpt_stop_) return;
    ckpt_pending_commits_ = 0;
    lock.unlock();
    const std::string path =
        Format("%s.autockpt%llu", options_.wal_path.c_str(),
               static_cast<unsigned long long>(parity & 1));
    // SaveSnapshot enforces its own safety rules (quiesce; refusal while
    // transactions hold object locks). A refusal is not an error here —
    // count it and rearm one commit short of the threshold, so the next
    // durable commit retries instead of waiting out a whole interval.
    const Status st = SaveSnapshot(this, path);
    lock.lock();
    if (st.ok()) {
      ++parity;
      checkpoints_taken_.fetch_add(1, std::memory_order_relaxed);
    } else {
      checkpoints_refused_.fetch_add(1, std::memory_order_relaxed);
      if (ckpt_pending_commits_ + 1 < options_.checkpoint_interval_commits) {
        ckpt_pending_commits_ = options_.checkpoint_interval_commits - 1;
      }
    }
  }
}

void Database::SetSchema(Schema schema) {
  TimedUniqueLock lock(catalog_mu_);
  schema_ = std::move(schema);
}

void Database::NotifyObjectAccess(Oid oid) {
  if (!observer_attached_.load(std::memory_order_acquire)) return;
  MutexLock lock(observer_mu_);
  if (observer_ != nullptr) observer_->OnObjectAccess(oid);
}

void Database::NotifyLinkCross(Oid from, Oid to, RefTypeId type,
                               bool reverse) {
  if (!observer_attached_.load(std::memory_order_acquire)) return;
  MutexLock lock(observer_mu_);
  if (observer_ != nullptr) observer_->OnLinkCross(from, to, type, reverse);
}

// --- Transaction lifecycle ---

std::unique_ptr<TransactionContext> Database::BeginTxn(TxnMode mode) {
  return BeginTxnWithId(next_txn_id_.fetch_add(1, std::memory_order_relaxed),
                        mode);
}

std::unique_ptr<TransactionContext> Database::BeginTxnWithId(TxnId id,
                                                             TxnMode mode) {
  // The GC thread exists only once someone transacts: legacy
  // single-client users (generators, the seed benches) never pay for it.
  std::call_once(gc_once_, [this]() {
    gc_thread_ = std::thread([this]() { GcLoop(); });
  });
  auto txn = std::make_unique<TransactionContext>(id, mode);
  if (txn->uses_snapshot_reads()) {
    // Pin the ReadView atomically against commit stamping and GC. An SI
    // writer reads from its pinned view exactly like a reader does.
    txn->snapshot_ts_ = version_store_.OpenSnapshot(&read_views_);
    txn->owns_view_ = true;
  }
  {
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) observer_->OnTransactionBegin();
  }
  return txn;
}

std::unique_ptr<TransactionContext> Database::BeginSnapshotTxnAt(
    CommitTs ts, TxnId id) {
  std::call_once(gc_once_, [this]() {
    gc_thread_ = std::thread([this]() { GcLoop(); });
  });
  auto txn = std::make_unique<TransactionContext>(id, TxnMode::kSnapshotRead);
  // Registration serializes on the version store's commit mutex, so this
  // shard's GC can never reclaim a version the view still needs. The
  // caller (the coordinator) excludes cross-shard half-commits by opening
  // all shards' views under its own commit mutex.
  txn->snapshot_ts_ = version_store_.OpenSnapshotAt(ts, &read_views_);
  txn->owns_view_ = true;
  {
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) observer_->OnTransactionBegin();
  }
  return txn;
}

std::unique_ptr<TransactionContext> Database::BeginSiWriterTxnAt(CommitTs ts,
                                                                 TxnId id) {
  std::call_once(gc_once_, [this]() {
    gc_thread_ = std::thread([this]() { GcLoop(); });
  });
  auto txn = std::make_unique<TransactionContext>(id, TxnMode::kSI);
  // Same GC-safety argument as BeginSnapshotTxnAt: the view registers
  // under the version store's commit mutex at the coordinator-chosen
  // global snapshot.
  txn->snapshot_ts_ = version_store_.OpenSnapshotAt(ts, &read_views_);
  txn->owns_view_ = true;
  {
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) observer_->OnTransactionBegin();
  }
  return txn;
}

Status Database::PrepareTxn(TransactionContext* txn) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (txn->read_only()) {
    return Status::InvalidArgument(
        Format("txn %llu is read-only: nothing to prepare",
               (unsigned long long)txn->id()));
  }
  if (!txn->active()) {
    return Status::InvalidArgument(
        Format("txn %llu is %s, not active", (unsigned long long)txn->id(),
               TxnStateToString(txn->state())));
  }
  // SI/OCC participants validate here — prepare is exactly the promise
  // point validation must precede. A validation loss leaves the txn
  // active (locks held) and the coordinator aborts every participant;
  // nothing was stamped or logged for this transaction yet.
  OCB_RETURN_NOT_OK(FinalizeCc(txn));
  // Strict 2PL with in-place writes: every write is already applied under
  // an X lock that stays held, so the participant *can* commit whenever
  // the coordinator decides to. Freezing the state is the whole phase.
  txn->state_ = TxnState::kPrepared;
  return Status::OK();
}

Status Database::CommitTxn(TransactionContext* txn) {
  return CommitTxnInternal(txn, /*external_ts=*/0);
}

Status Database::CommitTxnAt(TransactionContext* txn, CommitTs ts) {
  if (ts == 0) return Status::InvalidArgument("commit ts must be nonzero");
  return CommitTxnInternal(txn, ts);
}

Status Database::CommitTxnInternal(TransactionContext* txn,
                                   CommitTs external_ts) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (!txn->active() && !txn->prepared()) {
    return Status::InvalidArgument(
        Format("txn %llu is %s, not active", (unsigned long long)txn->id(),
               TxnStateToString(txn->state())));
  }
  // SI/OCC commits entering here directly (not through the pipeline or
  // 2PC prepare, which already finalized) validate and apply now. On a
  // validation loss the transaction aborts — rollback, seal, release —
  // and the caller sees the typed conflict. Coordinated commits
  // (external_ts != 0) were vetted by the ShardedDatabase.
  if (txn->active()) {
    if (external_ts == 0) OCB_RETURN_NOT_OK(RefuseUnrecoveredWal(txn));
    Status fin = FinalizeCc(txn);
    if (!fin.ok()) {
      AbortTxnInternal(txn, external_ts);
      return fin;
    }
  }
  txn->state_ = TxnState::kCommitted;
  Status wal_status = Status::OK();
  if (txn->owns_view_) {
    // MVCC readers and SI writers: unpin the ReadView.
    read_views_.Close(ReadView{txn->snapshot_ts_});
    txn->owns_view_ = false;
    gc_cv_.notify_all();  // The oldest snapshot may have advanced.
  }
  if (!txn->read_only() && !txn->undo_log_.empty()) {
    // Stamp before releasing any lock: the next writer of these objects
    // must append its pending version *behind* this commit in the chains.
    // Pure readers on the locking path allocate no timestamp.
    obs::TraceSpan stamp_span("commit.stamp", "txn", txn->id(), "batch", 1);
    CommitTs wal_ts = external_ts;
    if (external_ts != 0) {
      version_store_.StampCommittedAt(txn->id(), external_ts);
    } else {
      wal_ts = version_store_.StampCommitted(txn->id());
    }
    // Real WAL: a lone writer appends and forces its own record before
    // the commit is acknowledged. Coordinated commits (external_ts != 0)
    // were already appended by the coordinator via WalAppendTxn, which
    // also owns their force.
    if (external_ts == 0) {
      if (wal_ != nullptr) {
        wal_status = wal_->Append(BuildRedoRecord(txn, wal_ts, false));
        if (wal_status.ok()) wal_status = wal_->Force();
      } else {
        wal_status = wal_open_status_;
      }
    }
  }
  const bool durable_writer =
      !txn->read_only() && !txn->undo_log_.empty() && wal_status.ok();
  txn->undo_log_.clear();
  txn->undo_logged_.clear();
  lock_manager_.ReleaseAll(txn);
  {
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) observer_->OnTransactionEnd();
  }
  if (durable_writer) NoteCommitsForCheckpoint(1);
  return wal_status;
}

Status Database::AbortTxn(TransactionContext* txn) {
  return AbortTxnInternal(txn, /*external_ts=*/0);
}

Status Database::CommitTxnGrouped(TransactionContext* txn) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (!txn->active() && !txn->prepared()) {
    return Status::InvalidArgument(
        Format("txn %llu is %s, not active", (unsigned long long)txn->id(),
               TxnStateToString(txn->state())));
  }
  // Read-only commits only close a ReadView — no commit-mutex work to
  // amortize, so they skip the pipeline (and never wait behind a batch).
  if (txn->read_only()) return CommitTxnInternal(txn, /*external_ts=*/0);
  OCB_RETURN_NOT_OK(RefuseUnrecoveredWal(txn));
  // SI/OCC: validate and apply on the *caller's* thread, before joining
  // the batch — the leader must never block on another member's lock
  // acquisitions, and a validation loss must not occupy a batch slot.
  {
    Status fin = FinalizeCc(txn);
    if (!fin.ok()) {
      AbortTxnInternal(txn, /*external_ts=*/0);
      return fin;
    }
  }
  return commit_pipeline_.Submit(txn);
}

void Database::CommitBatch(
    const std::vector<CommitPipeline::Request*>& batch) {
  // Stamp every member's pending versions first — one commit-mutex
  // acquisition, consecutive timestamps — while every member still holds
  // all its X locks (members are distinct transactions, so stamping one
  // before releasing another is safe and preserves the per-transaction
  // stamp-before-release invariant).
  std::vector<TxnId> to_stamp;
  std::vector<TransactionContext*> writers;
  for (CommitPipeline::Request* req : batch) {
    auto* txn = static_cast<TransactionContext*>(req->handle);
    if (!txn->undo_log_.empty()) {
      writers.push_back(txn);
      to_stamp.push_back(txn->id());
    }
  }
  Status wal_status =
      (wal_ == nullptr) ? wal_open_status_ : Status::OK();
  {
    // The batch leader runs this on its own thread, so the span nests
    // inside the leader's "txn" span in the trace; followers' txn spans
    // show the same interval as queue time.
    obs::TraceSpan stamp_span(
        "commit.stamp", "batch", batch.size(), "leader",
        static_cast<TransactionContext*>(batch.front()->handle)->id());
    CommitTs last_ts = 0;
    if (!to_stamp.empty()) {
      last_ts = version_store_.StampCommittedBatch(to_stamp);
    }
    // Real WAL: one append per writer, ONE force for the whole batch —
    // the log amortization that is group commit's classic payoff.
    // Read-only and writeless members force nothing. The members' locks
    // are all still held, so the post-images read here are exactly the
    // committed states.
    if (wal_ != nullptr && !writers.empty()) {
      CommitTs ts = last_ts - writers.size() + 1;
      for (TransactionContext* txn : writers) {
        if (wal_status.ok()) {
          wal_status = wal_->Append(BuildRedoRecord(txn, ts, false));
        }
        ++ts;
        wal_killpoint::MaybeKill("mid-batch");
      }
      if (wal_status.ok()) wal_status = wal_->Force();
    }
  }
  bool closed_views = false;
  for (CommitPipeline::Request* req : batch) {
    auto* txn = static_cast<TransactionContext*>(req->handle);
    const bool writer = !txn->undo_log_.empty();
    txn->state_ = TxnState::kCommitted;
    if (txn->owns_view_) {
      // SI members pinned a ReadView at begin (pure readers never enter
      // the pipeline); unpin before releasing locks.
      read_views_.Close(ReadView{txn->snapshot_ts_});
      txn->owns_view_ = false;
      closed_views = true;
    }
    txn->undo_log_.clear();
    txn->undo_logged_.clear();
    lock_manager_.ReleaseAll(txn);
    // A writer whose record may not be durable must not see OK; members
    // without writes never depended on the log.
    req->status = writer ? wal_status : Status::OK();
  }
  // One observer pass for the whole batch (callbacks stay serialized).
  {
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) {
      for (size_t i = 0; i < batch.size(); ++i) {
        observer_->OnTransactionEnd();
      }
    }
  }
  if (closed_views) gc_cv_.notify_all();
  if (!writers.empty() && wal_status.ok()) {
    NoteCommitsForCheckpoint(writers.size());
  }
}

Status Database::AbortTxnAt(TransactionContext* txn, CommitTs ts) {
  if (ts == 0) return Status::InvalidArgument("seal ts must be nonzero");
  return AbortTxnInternal(txn, ts);
}

Status Database::AbortTxnInternal(TransactionContext* txn,
                                  CommitTs external_ts) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  // Idempotent: a second abort of the same transaction is a no-op, not
  // an error (RAII handles may race an explicit Abort with their
  // destructor's auto-abort).
  if (txn->state() == TxnState::kAborted) return Status::OK();
  if (!txn->active() && !txn->prepared()) {
    return Status::InvalidArgument(
        Format("txn %llu is %s, not active", (unsigned long long)txn->id(),
               TxnStateToString(txn->state())));
  }
  if (txn->read_only()) {
    read_views_.Close(ReadView{txn->snapshot_ts_});
    txn->owns_view_ = false;
    gc_cv_.notify_all();
    txn->state_ = TxnState::kAborted;
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) observer_->OnTransactionAbort();
    return Status::OK();
  }
  // SI/OCC state dies with the transaction: buffered writes were never
  // applied (nothing to roll back for them), read sets never validate.
  txn->write_buffer_.clear();
  txn->occ_read_set_.clear();
  txn->occ_extent_versions_.clear();
  if (txn->owns_view_) {
    read_views_.Close(ReadView{txn->snapshot_ts_});
    txn->owns_view_ = false;
    gc_cv_.notify_all();
  }
  Status first_failure = Status::OK();
  {
    // Roll back while the txn's X locks still shield the restored objects
    // from every other transaction; each physical step takes its own page
    // latches.
    auto& log = txn->undo_log_;
    const bool had_undo = !log.empty();
    for (auto it = log.rbegin(); it != log.rend(); ++it) {
      Status st = Status::OK();
      switch (it->kind) {
        case UndoRecord::Kind::kCreate: {
          if (store_->Contains(it->oid)) st = store_->Delete(it->oid);
          TimedUniqueLock cat(catalog_mu_);
          if (it->class_id < schema_.class_count()) {
            auto& extent = schema_.GetMutableClass(it->class_id).iterator;
            extent.erase(
                std::remove(extent.begin(), extent.end(), it->oid),
                extent.end());
            ++extent_versions_[it->class_id];
          }
          break;
        }
        case UndoRecord::Kind::kRestore: {
          if (store_->Contains(it->oid)) {
            st = store_->Update(it->oid, it->pre_image);
          } else {
            st = store_->InsertWithOid(it->oid, it->pre_image);
            if (st.ok()) {
              TimedUniqueLock cat(catalog_mu_);
              if (it->class_id < schema_.class_count()) {
                schema_.GetMutableClass(it->class_id)
                    .iterator.push_back(it->oid);
                ++extent_versions_[it->class_id];
              }
            }
          }
          break;
        }
      }
      if (!st.ok() && first_failure.ok()) first_failure = st;
    }
    log.clear();
    txn->undo_logged_.clear();
    // The store holds the pre-images again. Seal (do not drop) the
    // pending versions: a snapshot reader that raced the dirty writes
    // re-checks the version store after its store read, and the sealed
    // version — whose pre-image equals the rolled-back state — is what
    // keeps that re-check sound. See VersionStore::StampAborted. A txn
    // with no undo published no versions: skip the seal so pure readers
    // on the locking path (and sharded reader participants) never draw a
    // timestamp.
    if (had_undo) {
      if (external_ts != 0) {
        version_store_.StampAbortedAt(txn->id(), external_ts);
      } else {
        version_store_.StampAborted(txn->id());
      }
    }
    MutexLock lock(observer_mu_);
    if (observer_ != nullptr) observer_->OnTransactionAbort();
  }
  txn->state_ = TxnState::kAborted;
  lock_manager_.ReleaseAll(txn);
  return first_failure;
}

Status Database::LockFor(TransactionContext* txn, Oid oid, LockMode mode) {
  if (txn == nullptr) return Status::OK();
  return lock_manager_.Acquire(txn, oid, mode);
}

void Database::RecordPreImage(TransactionContext* txn, const Object& obj) {
  if (txn == nullptr) return;
  if (!txn->undo_logged_.insert(obj.oid).second) return;
  UndoRecord record;
  record.kind = UndoRecord::Kind::kRestore;
  record.oid = obj.oid;
  record.class_id = obj.class_id;
  obj.EncodeTo(&record.pre_image);
  // The same committed pre-image becomes a pending version. The publish
  // happens before the first in-place write of this object (we hold its X
  // lock and have not written yet), which is the ordering SnapshotRead's
  // read-validate protocol depends on.
  version_store_.PublishPreImage(txn->id(), obj.oid, record.pre_image);
  txn->undo_log_.push_back(std::move(record));
}

Result<Object> Database::SnapshotRead(TransactionContext* txn, Oid oid) {
  return SnapshotReadAt(txn, oid, txn->snapshot_ts_);
}

Result<Object> Database::SnapshotReadAt(TransactionContext* txn, Oid oid,
                                        CommitTs read_ts) {
  std::vector<uint8_t> bytes;
  switch (version_store_.GetVisible(oid, read_ts, &bytes)) {
    case VersionLookup::kInvisible:
      return Status::NotFound(
          Format("oid %llu not visible at snapshot %llu",
                 (unsigned long long)oid, (unsigned long long)read_ts));
    case VersionLookup::kVersion: {
      ++txn->snapshot_reads_;
      OCB_ASSIGN_OR_RETURN(Object obj, Object::Decode(bytes));
      obj.oid = oid;
      return obj;
    }
    case VersionLookup::kUseCurrent:
      break;
  }
  // Fall through to the current store state, then re-check the version
  // store: any conflicting write that raced the (page-latched) store read
  // published its pre-image before writing — and abort seals rather than
  // drops it — so the second lookup either validates the bytes we read or
  // hands us the correct pre-image.
  std::vector<uint8_t> current;
  Status read = store_->Read(oid, &current);
  switch (version_store_.GetVisible(oid, read_ts, &bytes,
                                    /*revalidate=*/true)) {
    case VersionLookup::kInvisible:
      return Status::NotFound(
          Format("oid %llu not visible at snapshot %llu",
                 (unsigned long long)oid, (unsigned long long)read_ts));
    case VersionLookup::kVersion: {
      ++txn->snapshot_reads_;
      OCB_ASSIGN_OR_RETURN(Object obj, Object::Decode(bytes));
      obj.oid = oid;
      return obj;
    }
    case VersionLookup::kUseCurrent:
      break;
  }
  OCB_RETURN_NOT_OK(read);  // Absent now ⇒ absent at the snapshot too.
  ++txn->snapshot_reads_;
  OCB_ASSIGN_OR_RETURN(Object obj, Object::Decode(current));
  obj.oid = oid;
  return obj;
}

Result<Object> Database::OptimisticRead(TransactionContext* txn, Oid oid) {
  // Read-your-writes: the buffered post-image wins, then the txn's own
  // in-place writes (eager creations hold their X lock — the store bytes
  // are this transaction's).
  auto wit = txn->write_buffer_.find(oid);
  if (wit != txn->write_buffer_.end()) {
    OCB_ASSIGN_OR_RETURN(Object obj, Object::Decode(wit->second.encoded));
    obj.oid = oid;
    return obj;
  }
  if (txn->undo_logged_.count(oid) != 0) return ReadDecode(oid);
  if (txn->mode() == TxnMode::kSI) return SnapshotRead(txn, oid);
  // Silo OCC: committed-latest read inside a stamp-stability loop. An
  // unchanged last-committed-write stamp around the read proves the bytes
  // belong to exactly that stamp (stamps are stamped before lock release
  // and monotonic per object, so there is no ABA).
  for (;;) {
    const CommitTs before = version_store_.LastWriteTs(oid);
    auto obj = SnapshotReadAt(txn, oid, VersionStore::kReadLatestTs);
    if (!obj.ok() && !obj.status().IsNotFound()) return obj;
    const CommitTs after = version_store_.LastWriteTs(oid);
    if (before != after) continue;  // A commit raced the read; retry.
    auto [it, inserted] = txn->occ_read_set_.emplace(oid, after);
    if (!inserted && it->second != after) {
      // A re-read whose stamp moved: the read set can never validate —
      // fail fast instead of letting the txn run doomed to the commit.
      occ_conflicts_.fetch_add(1, std::memory_order_relaxed);
      return Status::WriteConflict(
          Format("occ read of oid %llu saw stamp %llu, first read saw "
                 "%llu: concurrent commit invalidated the read set",
                 (unsigned long long)oid, (unsigned long long)after,
                 (unsigned long long)it->second));
    }
    return obj;
  }
}

Status Database::FinalizeCc(TransactionContext* txn) {
  if (txn == nullptr || !txn->optimistic() || txn->cc_finalized_) {
    return Status::OK();
  }
  // Phase 1: lock the write set, ascending oid order (std::map). Two
  // finalizers can't deadlock each other; contention with a 2PL writer
  // can still surface Aborted and is handled like any deadlock abort.
  for (const auto& [oid, write] : txn->write_buffer_) {
    OCB_RETURN_NOT_OK(LockFor(txn, oid, LockMode::kExclusive));
  }
  // Phase 2: validate.
  if (txn->mode() == TxnMode::kSI) {
    // First committer wins: anyone committing a write to our write set
    // after our snapshot invalidates us (covers blind writes too).
    for (const auto& [oid, write] : txn->write_buffer_) {
      const CommitTs last = version_store_.LastWriteTs(oid);
      if (last > txn->snapshot_ts_) {
        si_conflicts_.fetch_add(1, std::memory_order_relaxed);
        return Status::WriteConflict(
            Format("si validation: oid %llu committed at ts %llu, after "
                   "this txn's snapshot %llu (first committer wins)",
                   (unsigned long long)oid, (unsigned long long)last,
                   (unsigned long long)txn->snapshot_ts_));
      }
    }
  } else {
    // Silo: every read stamp unchanged; an object we only read must not
    // be X-locked by a concurrently committing writer (locked-tuple
    // rule — without it two validators could mutually pass stamp-only
    // checks before either stamps).
    for (const auto& [oid, stamp] : txn->occ_read_set_) {
      if (version_store_.LastWriteTs(oid) != stamp) {
        occ_conflicts_.fetch_add(1, std::memory_order_relaxed);
        return Status::WriteConflict(
            Format("occ validation: read stamp of oid %llu changed",
                   (unsigned long long)oid));
      }
      if (txn->write_buffer_.count(oid) == 0 &&
          lock_manager_.IsXLockedByOther(oid, txn->id())) {
        occ_conflicts_.fetch_add(1, std::memory_order_relaxed);
        return Status::WriteConflict(
            Format("occ validation: oid %llu is write-locked by a "
                   "concurrently committing transaction",
                   (unsigned long long)oid));
      }
    }
    // Phantom protection: the extent versions recorded by this txn's
    // scans must be unchanged.
    for (const auto& [class_id, version] : txn->occ_extent_versions_) {
      if (ExtentVersion(class_id) != version) {
        occ_conflicts_.fetch_add(1, std::memory_order_relaxed);
        return Status::WriteConflict(
            Format("occ validation: extent of class %u changed since the "
                   "scan (phantom)", class_id));
      }
    }
  }
  // Phase 3: apply the buffered writes in place under the held X locks —
  // pre-image publish + undo exactly like a 2PL Put, so everything
  // downstream (WAL, stamping, rollback) treats this as a plain writer.
  for (const auto& [oid, write] : txn->write_buffer_) {
    if (txn->undo_logged_.count(oid) == 0) {
      auto current = ReadDecode(oid);
      if (!current.ok()) {
        // A blind write to an object someone deleted: surface the
        // NotFound (the caller aborts — nothing was applied for this
        // oid, earlier applied writes are covered by undo).
        return current.status();
      }
      RecordPreImage(txn, current.value());
    }
    OCB_RETURN_NOT_OK(store_->Update(oid, write.encoded));
  }
  txn->write_buffer_.clear();
  txn->occ_read_set_.clear();
  txn->occ_extent_versions_.clear();
  txn->cc_finalized_ = true;
  return Status::OK();
}

Status Database::RefuseReadOnly(const TransactionContext* txn,
                                const char* op) {
  if (txn != nullptr && txn->read_only()) {
    return Status::InvalidArgument(
        Format("%s refused: txn %llu is read-only (snapshot %llu)", op,
               (unsigned long long)txn->id(),
               (unsigned long long)txn->snapshot_ts()));
  }
  return Status::OK();
}

Status Database::RefuseNonLocking(const TransactionContext* txn,
                                  const char* op) {
  if (txn != nullptr && txn->optimistic()) {
    return Status::NotSupported(
        Format("%s refused under mode=%s: its multi-object choreography "
               "(symmetric backref maintenance) needs 2PL's eager write "
               "footprint; run this transaction under the default strict "
               "2PL", op, TxnModeToString(txn->mode())));
  }
  return Status::OK();
}

Status Database::RefuseUnrecoveredWal(TransactionContext* txn) {
  if (!txn->has_writes() || !wal_recovery_pending()) return Status::OK();
  AbortTxnInternal(txn, /*external_ts=*/0);
  return Status::InvalidArgument(
      Format("commit refused: WAL '%s' holds commits of an earlier run; "
             "replay it with wal::RecoverDatabase first",
             options_.wal_path.c_str()));
}

Status Database::RefuseFinished(const TransactionContext* txn,
                                const char* op) {
  if (txn != nullptr && !txn->active()) {
    return Status::InvalidArgument(
        Format("%s refused: txn %llu is %s (use-after-finish)", op,
               (unsigned long long)txn->id(),
               TxnStateToString(txn->state())));
  }
  return Status::OK();
}

// --- Object operations ---

Result<Oid> Database::CreateObject(TransactionContext* txn,
                                   ClassId class_id) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "CreateObject"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "CreateObject"));
  std::unique_lock<std::mutex> legacy_hold(legacy_write_mu_, std::defer_lock);
  if (txn == nullptr) legacy_hold.lock();
  Object obj;
  {
    TimedSharedLock cat(catalog_mu_);
    if (class_id >= schema_.class_count()) {
      return Status::InvalidArgument(
          Format("unknown class %u", class_id));
    }
    const ClassDescriptor& cls = schema_.GetClass(class_id);
    obj.class_id = class_id;
    obj.orefs.assign(cls.maxnref, kInvalidOid);
    obj.filler_size = cls.instance_size;
  }
  if (obj.EncodedSize() > store_->max_object_size()) {
    return Status::InvalidArgument(
        Format("instance of class %u (%zu bytes) exceeds max object size "
               "%zu; raise page_size",
               class_id, obj.EncodedSize(), store_->max_object_size()));
  }
  std::vector<uint8_t> bytes;
  obj.EncodeTo(&bytes);
  Oid oid = kInvalidOid;
  if (txn == nullptr) {
    OCB_ASSIGN_OR_RETURN(oid, store_->Insert(bytes));
  } else {
    // X-lock the oid before the store table and the class extent publish
    // it. Otherwise a concurrent transaction can find the uncommitted
    // object (LiveOidsSnapshot, ExtentSnapshot), lock it first and wire a
    // reference to it that this creation's abort leaves dangling, or
    // append its own version ahead of this creation in the chain. A fresh
    // oid is unknown to every other transaction, so this grant never
    // blocks.
    oid = store_->AllocateOid();
    OCB_RETURN_NOT_OK(
        lock_manager_.Acquire(txn, oid, LockMode::kExclusive));
    // Snapshot readers born before this commit must not see the object.
    version_store_.PublishCreation(txn->id(), oid);
    OCB_RETURN_NOT_OK(store_->InsertWithOid(oid, bytes));
    UndoRecord record;
    record.kind = UndoRecord::Kind::kCreate;
    record.oid = oid;
    record.class_id = class_id;
    txn->undo_log_.push_back(std::move(record));
    txn->undo_logged_.insert(oid);
  }
  {
    TimedUniqueLock cat(catalog_mu_);
    schema_.GetMutableClass(class_id).iterator.push_back(oid);
    ++extent_versions_[class_id];
  }
  return oid;
}

Result<Object> Database::ReadDecode(Oid oid) {
  std::vector<uint8_t> bytes;
  OCB_RETURN_NOT_OK(store_->Read(oid, &bytes));
  OCB_ASSIGN_OR_RETURN(Object obj, Object::Decode(bytes));
  obj.oid = oid;
  return obj;
}

Status Database::WriteEncoded(Oid oid, const Object& object) {
  std::vector<uint8_t> bytes;
  object.EncodeTo(&bytes);
  return store_->Update(oid, bytes);
}

Result<Object> Database::GetObject(TransactionContext* txn, Oid oid) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "GetObject"));
  if (txn != nullptr && txn->read_only()) {
    // MVCC path: no lock — resolve against the ReadView with the
    // read-validate protocol (see SnapshotRead).
    OCB_ASSIGN_OR_RETURN(Object obj, SnapshotRead(txn, oid));
    NotifyObjectAccess(oid);
    return obj;
  }
  if (txn != nullptr && txn->optimistic()) {
    // SI/OCC: no S locks — own writes, then the algorithm's protocol.
    OCB_ASSIGN_OR_RETURN(Object obj, OptimisticRead(txn, oid));
    NotifyObjectAccess(oid);
    return obj;
  }
  OCB_RETURN_NOT_OK(LockFor(txn, oid, LockMode::kShared));
  OCB_ASSIGN_OR_RETURN(Object obj, ReadDecode(oid));
  NotifyObjectAccess(oid);
  return obj;
}

Result<Object> Database::PeekObject(Oid oid) { return ReadDecode(oid); }

Status Database::SetReference(TransactionContext* txn, Oid from,
                              uint32_t slot, Oid to) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "SetReference"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "SetReference"));
  OCB_RETURN_NOT_OK(RefuseNonLocking(txn, "SetReference"));
  // The txn path's multi-object atomicity comes from the X locks acquired
  // below. The legacy path (txn == nullptr) has no object locks, so it
  // holds legacy_write_mu_ across the whole multi-object operation.
  std::unique_lock<std::mutex> legacy_hold(legacy_write_mu_, std::defer_lock);
  if (txn == nullptr) legacy_hold.lock();
  OCB_RETURN_NOT_OK(LockFor(txn, from, LockMode::kExclusive));
  OCB_ASSIGN_OR_RETURN(Object source, ReadDecode(from));
  if (slot >= source.orefs.size()) {
    return Status::InvalidArgument(
        Format("slot %u out of range for class %u", slot, source.class_id));
  }
  // The X lock on `from` freezes its slots, so `previous` is stable while
  // the remaining locks are acquired.
  const Oid previous = source.orefs[slot];
  if (previous == to) return Status::OK();
  if (previous != kInvalidOid) {
    OCB_RETURN_NOT_OK(LockFor(txn, previous, LockMode::kExclusive));
  }
  if (to != kInvalidOid) {
    OCB_RETURN_NOT_OK(LockFor(txn, to, LockMode::kExclusive));
  }

  // Read-and-validate everything *before* the first write, so a vanished
  // target (deleted by a concurrently committed transaction) or a full
  // backref page surfaces while the database is still untouched — no
  // dangling oref, no half-applied unlink.
  Object target;
  const bool self_target = to == from;
  if (to != kInvalidOid && !self_target) {
    OCB_ASSIGN_OR_RETURN(target, ReadDecode(to));
  }
  {
    Object* absorbing = self_target ? &source : &target;
    if (to != kInvalidOid &&
        absorbing->EncodedSize() + sizeof(Oid) >
            store_->max_object_size()) {
      return Status::NoSpace(
          Format("backref array of oid %llu would exceed page capacity",
                 (unsigned long long)to));
    }
  }
  RecordPreImage(txn, source);
  // Unlink the previous target's backref, if any.
  if (previous == from) {
    // Self-reference: unlink in the same in-memory copy — a separately
    // read-modify-written alias would be clobbered by the source write
    // below, stranding the old backref.
    auto it = std::find(source.backrefs.begin(), source.backrefs.end(),
                        from);
    if (it != source.backrefs.end()) source.backrefs.erase(it);
  } else if (previous != kInvalidOid) {
    auto old_read = ReadDecode(previous);
    if (old_read.ok()) {
      Object old_target = std::move(old_read).value();
      auto it = std::find(old_target.backrefs.begin(),
                          old_target.backrefs.end(), from);
      if (it != old_target.backrefs.end()) {
        RecordPreImage(txn, old_target);
        old_target.backrefs.erase(it);
        OCB_RETURN_NOT_OK(WriteEncoded(previous, old_target));
      }
    }
  }
  source.orefs[slot] = to;
  if (self_target) {
    source.backrefs.push_back(from);
    return WriteEncoded(from, source);
  }
  OCB_RETURN_NOT_OK(WriteEncoded(from, source));
  if (to != kInvalidOid) {
    RecordPreImage(txn, target);
    target.backrefs.push_back(from);
    OCB_RETURN_NOT_OK(WriteEncoded(to, target));
  }
  return Status::OK();
}

Result<Object> Database::CrossLink(TransactionContext* txn, Oid from, Oid to,
                                   RefTypeId type, bool reverse) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "CrossLink"));
  if (txn != nullptr && txn->read_only()) {
    NotifyLinkCross(from, to, type, reverse);
    OCB_ASSIGN_OR_RETURN(Object obj, SnapshotRead(txn, to));
    NotifyObjectAccess(to);
    return obj;
  }
  if (txn != nullptr && txn->optimistic()) {
    NotifyLinkCross(from, to, type, reverse);
    OCB_ASSIGN_OR_RETURN(Object obj, OptimisticRead(txn, to));
    NotifyObjectAccess(to);
    return obj;
  }
  OCB_RETURN_NOT_OK(LockFor(txn, to, LockMode::kShared));
  NotifyLinkCross(from, to, type, reverse);
  OCB_ASSIGN_OR_RETURN(Object obj, ReadDecode(to));
  NotifyObjectAccess(to);
  return obj;
}

Status Database::PutObject(TransactionContext* txn, const Object& object) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "PutObject"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "PutObject"));
  if (object.oid == kInvalidOid) {
    return Status::InvalidArgument("PutObject requires a valid oid");
  }
  if (txn != nullptr && txn->optimistic()) {
    // SI/OCC: buffer the post-image; FinalizeCc locks, validates and
    // applies at commit. A Put to the transaction's own eager creation
    // writes in place — its X lock is already held. A Put to an oid that
    // vanishes before commit surfaces NotFound at finalization.
    if (txn->undo_logged_.count(object.oid) != 0) {
      return WriteEncoded(object.oid, object);
    }
    BufferedWrite write;
    write.class_id = object.class_id;
    object.EncodeTo(&write.encoded);
    txn->write_buffer_[object.oid] = std::move(write);
    return Status::OK();
  }
  OCB_RETURN_NOT_OK(LockFor(txn, object.oid, LockMode::kExclusive));
  std::unique_lock<std::mutex> legacy_hold(legacy_write_mu_, std::defer_lock);
  if (txn == nullptr) legacy_hold.lock();
  if (txn != nullptr && txn->undo_logged_.count(object.oid) == 0) {
    // Pre-image is the *stored* state, not the caller's copy.
    OCB_ASSIGN_OR_RETURN(Object current, ReadDecode(object.oid));
    RecordPreImage(txn, current);
  }
  return WriteEncoded(object.oid, object);
}

Status Database::DeleteObject(TransactionContext* txn, Oid oid) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "DeleteObject"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "DeleteObject"));
  OCB_RETURN_NOT_OK(RefuseNonLocking(txn, "DeleteObject"));
  // See SetReference for the legacy hold.
  std::unique_lock<std::mutex> legacy_hold(legacy_write_mu_, std::defer_lock);
  if (txn == nullptr) legacy_hold.lock();
  OCB_RETURN_NOT_OK(LockFor(txn, oid, LockMode::kExclusive));
  if (txn != nullptr) {
    // Lock the whole neighborhood up front (the X on `oid` freezes its
    // ORef/BackRef arrays, so the neighbor list cannot change while the
    // remaining locks are collected one by one).
    OCB_ASSIGN_OR_RETURN(Object obj, ReadDecode(oid));
    std::vector<Oid> neighbors;
    for (Oid target : obj.orefs) {
      if (target != kInvalidOid && target != oid) neighbors.push_back(target);
    }
    for (Oid referer : obj.backrefs) {
      if (referer != oid) neighbors.push_back(referer);
    }
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    for (Oid n : neighbors) {
      OCB_RETURN_NOT_OK(LockFor(txn, n, LockMode::kExclusive));
    }
  }

  OCB_ASSIGN_OR_RETURN(Object obj, ReadDecode(oid));
  RecordPreImage(txn, obj);
  // Unlink from targets' backrefs.
  for (Oid target : obj.orefs) {
    if (target == kInvalidOid) continue;
    auto tr = ReadDecode(target);
    if (!tr.ok()) continue;  // Target already gone.
    Object t = std::move(tr).value();
    auto it = std::find(t.backrefs.begin(), t.backrefs.end(), oid);
    if (it != t.backrefs.end()) {
      RecordPreImage(txn, t);
      t.backrefs.erase(it);
      OCB_RETURN_NOT_OK(WriteEncoded(target, t));
    }
  }
  // Null out referers' oref slots.
  for (Oid referer : obj.backrefs) {
    auto rr = ReadDecode(referer);
    if (!rr.ok()) continue;
    Object r = std::move(rr).value();
    if (std::find(r.orefs.begin(), r.orefs.end(), oid) == r.orefs.end()) {
      continue;
    }
    RecordPreImage(txn, r);
    for (Oid& slot : r.orefs) {
      if (slot == oid) slot = kInvalidOid;
    }
    OCB_RETURN_NOT_OK(WriteEncoded(referer, r));
  }
  // Remove from class extent (catalog latch; the store delete below is
  // page-latched on its own).
  {
    TimedUniqueLock cat(catalog_mu_);
    if (obj.class_id < schema_.class_count()) {
      auto& extent = schema_.GetMutableClass(obj.class_id).iterator;
      extent.erase(std::remove(extent.begin(), extent.end(), oid),
                   extent.end());
      ++extent_versions_[obj.class_id];
    }
  }
  return store_->Delete(oid);
}

Status Database::GetObjectsBatched(TransactionContext* txn,
                                   std::span<const Oid> oids,
                                   std::vector<Object>* out) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "GetMany"));
  out->reserve(out->size() + oids.size());
  std::vector<Oid> accessed;
  accessed.reserve(oids.size());
  if (txn != nullptr && txn->read_only()) {
    // MVCC: resolve each oid through the ReadView — no locks at all.
    for (Oid oid : oids) {
      auto obj = SnapshotRead(txn, oid);
      if (obj.ok()) {
        accessed.push_back(oid);
        out->push_back(std::move(obj).value());
      } else if (!obj.status().IsNotFound()) {
        return obj.status();
      }
    }
  } else if (txn != nullptr && txn->optimistic()) {
    // SI/OCC: per-oid optimistic reads, no locks. Vanished (or not yet
    // committed) members are skipped like the snapshot path's.
    for (Oid oid : oids) {
      auto obj = OptimisticRead(txn, oid);
      if (obj.ok()) {
        accessed.push_back(oid);
        out->push_back(std::move(obj).value());
      } else if (!obj.status().IsNotFound()) {
        return obj.status();
      }
    }
  } else {
    // 2PL: ONE sorted lock-footprint pass (ascending oids — two GetMany
    // calls can never deadlock each other), then one read pass.
    if (txn != nullptr) {
      std::vector<Oid> footprint(oids.begin(), oids.end());
      std::sort(footprint.begin(), footprint.end());
      footprint.erase(std::unique(footprint.begin(), footprint.end()),
                      footprint.end());
      for (Oid oid : footprint) {
        OCB_RETURN_NOT_OK(LockFor(txn, oid, LockMode::kShared));
      }
    }
    for (Oid oid : oids) {
      auto obj = ReadDecode(oid);
      if (obj.ok()) {
        accessed.push_back(oid);
        out->push_back(std::move(obj).value());
      } else if (!obj.status().IsNotFound()) {
        return obj.status();
      }
    }
  }
  // One observer pass for the whole batch.
  MutexLock lock(observer_mu_);
  if (observer_ != nullptr) {
    for (Oid oid : accessed) observer_->OnObjectAccess(oid);
  }
  return Status::OK();
}

Status Database::AcquireWriteFootprint(TransactionContext* txn,
                                       std::vector<Oid> oids) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "ApplyWriteBatch"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "ApplyWriteBatch"));
  if (txn == nullptr) return Status::OK();
  // Optimistic transactions take no locks before commit; the batch's
  // writes will be buffered.
  if (txn->optimistic()) return Status::OK();
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  for (Oid oid : oids) {
    OCB_RETURN_NOT_OK(LockFor(txn, oid, LockMode::kExclusive));
  }
  return Status::OK();
}

void Database::SetObserver(AccessObserver* observer) {
  MutexLock lock(observer_mu_);
  observer_ = observer;
  observer_attached_.store(observer != nullptr, std::memory_order_release);
}

void Database::BeginTransaction() {
  MutexLock lock(observer_mu_);
  if (observer_ != nullptr) observer_->OnTransactionBegin();
}

void Database::EndTransaction() {
  MutexLock lock(observer_mu_);
  if (observer_ != nullptr) observer_->OnTransactionEnd();
}

Status Database::ColdRestart() {
  // Mirror the SaveSnapshot contract: flushing would persist uncommitted
  // in-place writes (their undo lives only in memory), and invalidating
  // frames yanks state an open snapshot reader may still fall through
  // to. Typed refusal, never UB.
  if (lock_manager_.locked_object_count() > 0) {
    return Status::InvalidArgument(
        "ColdRestart refused: in-flight transactions hold object locks; "
        "commit or abort them first");
  }
  if (read_views_.open_count() > 0) {
    return Status::InvalidArgument(
        "ColdRestart refused: open snapshot ReadViews are still pinned; "
        "finish the readers first");
  }
  QuiesceGuard quiesce(this);
  OCB_RETURN_NOT_OK(pool_->FlushAll());
  return pool_->InvalidateAll();
}

Status Database::WalAppendTxn(TransactionContext* txn, CommitTs ts,
                              bool coordinated) {
  if (wal_ == nullptr) return wal_open_status_;
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (txn->undo_log_.empty()) return Status::OK();  // Reader: nothing to log.
  return wal_->Append(BuildRedoRecord(txn, ts, coordinated));
}

Status Database::WalForce() {
  if (wal_ == nullptr) return wal_open_status_;
  return wal_->Force();
}

wal::WalRecord Database::BuildRedoRecord(TransactionContext* txn,
                                         CommitTs ts, bool coordinated) {
  wal::WalRecord rec;
  rec.type = wal::WalRecordType::kCommit;
  rec.flags = coordinated ? wal::kCoordinated : 0;
  rec.txn_id = txn->id();
  rec.commit_ts = ts;
  rec.ops.reserve(txn->undo_log_.size());
  // One undo record exists per touched oid (undo_logged_ dedup). The
  // current store state *is* the post-image: writes are in-place and the
  // X locks are still held, so nothing can change it under us.
  for (const UndoRecord& undo : txn->undo_log_) {
    wal::WalOp op;
    op.class_id = undo.class_id;
    op.oid = undo.oid;
    std::vector<uint8_t> bytes;
    if (store_->Read(undo.oid, &bytes).ok()) {
      op.kind = wal::WalOpKind::kUpsert;
      op.payload = std::move(bytes);
    } else {
      op.kind = wal::WalOpKind::kDelete;
    }
    rec.ops.push_back(std::move(op));
  }
  return rec;
}

Status Database::ApplyRedoOp(const wal::WalOp& op) {
  switch (op.kind) {
    case wal::WalOpKind::kUpsert: {
      if (store_->Contains(op.oid)) {
        return store_->Update(op.oid, op.payload);
      }
      OCB_RETURN_NOT_OK(store_->InsertWithOid(op.oid, op.payload));
      TimedUniqueLock cat(catalog_mu_);
      // Replayed class ids are bounds-checked like the abort path: a
      // snapshot older than the log's schema must not crash replay.
      if (op.class_id < schema_.class_count()) {
        schema_.GetMutableClass(op.class_id).iterator.push_back(op.oid);
        ++extent_versions_[op.class_id];
      }
      return Status::OK();
    }
    case wal::WalOpKind::kDelete: {
      if (!store_->Contains(op.oid)) return Status::OK();  // Idempotent.
      OCB_RETURN_NOT_OK(store_->Delete(op.oid));
      TimedUniqueLock cat(catalog_mu_);
      if (op.class_id < schema_.class_count()) {
        auto& extent = schema_.GetMutableClass(op.class_id).iterator;
        extent.erase(std::remove(extent.begin(), extent.end(), op.oid),
                     extent.end());
        ++extent_versions_[op.class_id];
      }
      return Status::OK();
    }
    case wal::WalOpKind::kCheckpointInfo:
      break;
  }
  return Status::InvalidArgument("redo op kind does not apply to a store");
}

uint64_t Database::object_count() const {
  return store_->stats().objects.load(std::memory_order_relaxed);
}

std::vector<Oid> Database::ExtentSnapshot(ClassId class_id) {
  TimedSharedLock lock(catalog_mu_);
  if (class_id >= schema_.class_count()) return {};
  return schema_.GetClass(class_id).iterator;
}

uint64_t Database::ExtentVersion(ClassId class_id) {
  TimedSharedLock lock(catalog_mu_);
  auto it = extent_versions_.find(class_id);
  return it == extent_versions_.end() ? 0 : it->second;
}

std::vector<Oid> Database::ExtentSnapshot(ClassId class_id,
                                          TransactionContext* txn) {
  if (txn != nullptr && txn->mode() == TxnMode::kOCC) {
    // OCC scans current membership but records the extent version under
    // the SAME catalog-latch hold as the copy, so the recorded counter
    // provably describes the copied membership. Commit revalidates it
    // (phantom protection). The first scan's version sticks: a later
    // bump fails validation whether observed here again or not.
    TimedSharedLock lock(catalog_mu_);
    auto vit = extent_versions_.find(class_id);
    txn->occ_extent_versions_.emplace(
        class_id, vit == extent_versions_.end() ? 0 : vit->second);
    if (class_id >= schema_.class_count()) return {};
    return schema_.GetClass(class_id).iterator;
  }
  std::vector<Oid> extent = ExtentSnapshot(class_id);
  if (txn == nullptr || !txn->uses_snapshot_reads()) return extent;
  // Extents are not versioned: the copy above is *current* membership, so
  // a snapshot reader (or an SI writer, whose reads come from its pinned
  // view) could observe members created after its instant (a torn
  // extent). Filter through the version store: a creation version newer
  // than the view proves the member was born after the snapshot.
  std::vector<Oid> visible;
  visible.reserve(extent.size());
  for (Oid oid : extent) {
    // An SI writer's own creations are newer than its snapshot but must
    // stay visible to it (read-your-writes); undo_logged_ holds exactly
    // the oids this transaction touched in place.
    if (!version_store_.CreatedAfter(oid, txn->snapshot_ts()) ||
        txn->undo_logged_.count(oid) != 0) {
      visible.push_back(oid);
    }
  }
  return visible;
}

std::vector<Oid> Database::LiveOidsSnapshot() {
  return store_->LiveOids();
}

bool Database::ContainsObject(Oid oid) {
  return store_->Contains(oid);
}

}  // namespace ocb
