#include "sharding/sharded_database.h"

#include <algorithm>

#include "oodb/snapshot.h"
#include "storage/io_backend.h"
#include "util/format.h"
#include "wal/wal_writer.h"

namespace ocb {

namespace {

/// Per-shard lock wait timeout: long enough that real intra-shard
/// conflicts resolve through the wait-for graph first, short enough that
/// a cross-shard deadlock (invisible to every per-shard graph) stalls a
/// client for a fraction of a second, not the single-store default of 2 s.
constexpr uint64_t kShardLockTimeoutNanos = 250'000'000;  // 250 ms

}  // namespace

ShardedDatabase::ShardedDatabase(const StorageOptions& base,
                                 uint32_t shard_count)
    : base_options_(base), router_(shard_count) {
  const uint32_t n = router_.shard_count();
  StorageOptions per = base;
  // Equal total memory across shard counts: N pools of pages/N frames.
  per.buffer_pool_pages =
      std::max<size_t>(base.buffer_pool_pages / n, size_t{8});
  per.oid_stride = router_.OidStride();
  per.lock_wait_timeout_nanos =
      std::min<uint64_t>(base.lock_wait_timeout_nanos,
                         kShardLockTimeoutNanos);
  // One I/O worker group for the whole deployment: each shard's DiskSim
  // submits to the shared backend instead of spawning io_workers threads
  // per shard (N shards would otherwise mean N * io_workers threads).
  if (base.io_workers > 0 && per.io_backend == nullptr) {
    per.io_backend = std::make_shared<IoBackend>(base.io_workers);
  }
  shards_.reserve(n);
  std::vector<Database*> raw;
  for (uint32_t k = 0; k < n; ++k) {
    per.first_oid = router_.FirstOidFor(k);
    per.backing_file = base.backing_file.empty()
                           ? std::string()
                           : base.backing_file + Format(".shard%u", k);
    per.wal_path = base.wal_path.empty()
                       ? std::string()
                       : base.wal_path + Format(".shard%u", k);
    shards_.push_back(std::make_unique<Database>(per));
    raw.push_back(shards_.back().get());
  }
  coordinator_ = std::make_unique<CrossShardCoordinator>(std::move(raw));
  if (!base.wal_path.empty()) {
    // The coordinator's marker log pairs with the shard logs: a 2PC
    // participant record replays only when its marker is here.
    auto coord_wal = wal::WalWriter::Open(base.wal_path + ".coord",
                                          base.wal_segment_bytes);
    if (coord_wal.ok()) {
      coord_wal_ = std::move(coord_wal).value();
      coord_recovery_pending_.store(coord_wal_->found_commits(),
                                    std::memory_order_release);
      coordinator_->AttachWal(coord_wal_.get());
    } else {
      coord_wal_status_ = coord_wal.status();
    }
  }
  // One wait-for graph across every shard's lock manager: per-shard DFS
  // handles intra-shard cycles, the graph refuses cross-shard ones (see
  // wait_graph.h) — without it every such cycle burned the wait timeout.
  for (auto& shard : shards_) {
    shard->lock_manager()->SetWaitGraph(coordinator_->wait_graph());
  }
#ifndef OCB_OBS_DISABLED
  // Coordinator-level gauges; per-shard engine gauges are registered by
  // each Database and sum under their shared names.
  obs_callbacks_.Register("db.coord.fast_path_commits", [this] {
    return coordinator_->stats().fast_path_commits;
  });
  obs_callbacks_.Register("db.coord.cross_shard_commits", [this] {
    return coordinator_->stats().cross_shard_commits;
  });
  obs_callbacks_.Register("db.coord.prepares", [this] {
    return coordinator_->stats().prepares;
  });
  obs_callbacks_.Register("db.coord.aborts", [this] {
    return coordinator_->stats().aborts;
  });
  obs_callbacks_.Register("db.coord.twopc_nanos", [this] {
    return coordinator_->stats().twopc_nanos;
  });
#endif
}

// Out of line: the header only forward-declares wal::WalWriter.
ShardedDatabase::~ShardedDatabase() = default;

Status ShardedDatabase::wal_open_status() const {
  if (!coord_wal_status_.ok()) return coord_wal_status_;
  for (const auto& shard : shards_) {
    Status st = shard->wal_open_status();
    if (!st.ok()) return st;
  }
  return Status::OK();
}

bool ShardedDatabase::wal_recovery_pending() const {
  if (coord_recovery_pending_.load(std::memory_order_acquire)) return true;
  for (const auto& shard : shards_) {
    if (shard->wal_recovery_pending()) return true;
  }
  return false;
}

void ShardedDatabase::MarkWalRecovered() {
  for (auto& shard : shards_) shard->MarkWalRecovered();
  coord_recovery_pending_.store(false, std::memory_order_release);
}

void ShardedDatabase::SetSchema(Schema schema) {
  for (auto& shard : shards_) {
    Schema copy = schema;
    shard->SetSchema(std::move(copy));
  }
  schema_ = std::move(schema);
}

std::unique_ptr<ShardedTransaction> ShardedDatabase::BeginTxn(TxnMode mode) {
  auto txn = std::make_unique<ShardedTransaction>(
      next_txn_id_.fetch_add(1, std::memory_order_relaxed),
      router_.shard_count(), mode);
  if (mode == TxnMode::kSnapshotRead) {
    coordinator_->OpenGlobalSnapshot(txn.get());
  } else if (mode == TxnMode::kSI) {
    // Eager contexts, all views pinned at one global snapshot point (see
    // BeginTxn's doc comment: lazy opening would race per-shard GC).
    coordinator_->OpenGlobalSiContexts(txn.get());
  }
  return txn;
}

Status ShardedDatabase::RefuseUnrecoveredWal(ShardedTransaction* txn) {
  if (txn == nullptr || txn->read_only() || !wal_recovery_pending()) {
    return Status::OK();
  }
  bool writer = false;
  for (uint32_t k = 0; k < shard_count(); ++k) {
    const TransactionContext* ctx = txn->context(k);
    if (ctx != nullptr && ctx->has_writes()) writer = true;
  }
  if (!writer) return Status::OK();
  (void)coordinator_->Abort(txn);
  return Status::InvalidArgument(
      Format("commit refused: WAL '%s' holds commits of an earlier run; "
             "replay it with wal::RecoverShardedDatabase first",
             base_options_.wal_path.c_str()));
}

Status ShardedDatabase::CommitTxn(ShardedTransaction* txn) {
  OCB_RETURN_NOT_OK(RefuseUnrecoveredWal(txn));
  return coordinator_->Commit(txn);
}

Status ShardedDatabase::AbortTxn(ShardedTransaction* txn) {
  return coordinator_->Abort(txn);
}

Status ShardedDatabase::CommitTxnGrouped(ShardedTransaction* txn) {
  OCB_RETURN_NOT_OK(RefuseUnrecoveredWal(txn));
  return coordinator_->CommitGrouped(txn);
}

void ShardedDatabase::SetGroupCommitMaxBatch(uint32_t n) {
  coordinator_->SetGroupCommitMaxBatch(n);
}

void ShardedDatabase::SetGroupCommitWindow(uint64_t nanos) {
  coordinator_->SetGroupCommitWindow(nanos);
}

GroupCommitStats ShardedDatabase::group_commit_stats() const {
  return coordinator_->group_commit_stats();
}

void ShardedDatabase::SetDeadlockPolicy(DeadlockPolicy policy) {
  for (auto& shard : shards_) shard->SetDeadlockPolicy(policy);
}

TransactionContext* ShardedDatabase::ContextFor(ShardedTransaction* txn,
                                                uint32_t k) {
  if (txn == nullptr) return nullptr;
  if (txn->contexts_[k] == nullptr) {
    // Same id on every shard: the GlobalWaitGraph needs one identity per
    // sharded transaction to see cycles that cross shards. The mode
    // rides along (reader and SI contexts are never created here — they
    // were opened eagerly at begin).
    txn->contexts_[k] = shards_[k]->BeginTxnWithId(txn->id(), txn->mode());
  }
  return txn->contexts_[k].get();
}

Status ShardedDatabase::RefuseReadOnly(const ShardedTransaction* txn,
                                       const char* op) {
  if (txn != nullptr && txn->read_only()) {
    return Status::InvalidArgument(
        Format("%s refused: sharded txn is read-only (snapshot %llu)", op,
               (unsigned long long)txn->snapshot_ts()));
  }
  return Status::OK();
}

Status ShardedDatabase::RefuseNonLocking(const ShardedTransaction* txn,
                                         const char* op) {
  if (txn != nullptr && txn->optimistic()) {
    return Status::NotSupported(
        Format("%s refused under %s: multi-object choreography (symmetric "
               "backref maintenance) needs 2PL's eager write footprint; "
               "use a k2PL transaction",
               op, TxnModeToString(txn->mode())));
  }
  return Status::OK();
}

Status ShardedDatabase::RefuseFinished(const ShardedTransaction* txn,
                                       const char* op) {
  if (txn != nullptr && !txn->active()) {
    return Status::InvalidArgument(
        Format("%s refused: sharded txn %llu is %s (use-after-finish)", op,
               (unsigned long long)txn->id(),
               TxnStateToString(txn->state())));
  }
  return Status::OK();
}

Result<Oid> ShardedDatabase::CreateObject(ShardedTransaction* txn,
                                          ClassId class_id) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "CreateObject"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "CreateObject"));
  const uint32_t k = static_cast<uint32_t>(
      create_cursor_.fetch_add(1, std::memory_order_relaxed) %
      router_.shard_count());
  return shards_[k]->CreateObject(ContextFor(txn, k), class_id);
}

Result<Object> ShardedDatabase::GetObject(ShardedTransaction* txn,
                                          Oid oid) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "GetObject"));
  const uint32_t k = router_.ShardOf(oid);
  return shards_[k]->GetObject(ContextFor(txn, k), oid);
}

Result<Object> ShardedDatabase::PeekObject(Oid oid) {
  return shards_[router_.ShardOf(oid)]->PeekObject(oid);
}

Result<Object> ShardedDatabase::CrossLink(ShardedTransaction* txn, Oid from,
                                          Oid to, RefTypeId type,
                                          bool reverse) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "CrossLink"));
  const uint32_t k = router_.ShardOf(to);
  return shards_[k]->CrossLink(ContextFor(txn, k), from, to, type, reverse);
}

Status ShardedDatabase::PutObject(ShardedTransaction* txn,
                                  const Object& object) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "PutObject"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "PutObject"));
  const uint32_t k = router_.ShardOf(object.oid);
  return shards_[k]->PutObject(ContextFor(txn, k), object);
}

Status ShardedDatabase::SetReference(ShardedTransaction* txn, Oid from,
                                     uint32_t slot, Oid to) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "SetReference"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "SetReference"));
  OCB_RETURN_NOT_OK(RefuseNonLocking(txn, "SetReference"));
  const uint32_t from_shard = router_.ShardOf(from);
  if (router_.shard_count() == 1) {
    return shards_[0]->SetReference(ContextFor(txn, 0), from, slot, to);
  }
  TransactionContext* from_ctx = ContextFor(txn, from_shard);
  // The X lock on `from` freezes its slots, so `previous` stays stable
  // while the rest of the footprint is locked (same argument as
  // Database::SetReference).
  OCB_RETURN_NOT_OK(
      shards_[from_shard]->AcquireLock(from_ctx, from,
                                       LockMode::kExclusive));
  OCB_ASSIGN_OR_RETURN(Object source,
                       shards_[from_shard]->PeekObject(from));
  if (slot >= source.orefs.size()) {
    return Status::InvalidArgument(
        Format("slot %u out of range for class %u", slot, source.class_id));
  }
  const Oid previous = source.orefs[slot];
  if (previous == to) return Status::OK();
  const uint32_t prev_shard = router_.ShardOf(previous);
  const uint32_t to_shard = router_.ShardOf(to);
  if ((previous == kInvalidOid || prev_shard == from_shard) &&
      (to == kInvalidOid || to_shard == from_shard)) {
    // Whole footprint is shard-local: the owning shard's own choreography
    // is atomic and exact (it re-acquires the held X idempotently).
    return shards_[from_shard]->SetReference(from_ctx, from, slot, to);
  }
  // Cross-shard: X-lock the remaining footprint through each owner's
  // lock manager — in ascending oid order, so concurrent SetReferences
  // over the same {previous, to} pair cannot deadlock each other — then
  // validate everything before the first write. (Cycles through the
  // primary locks, which are necessarily taken first, are refused by
  // the GlobalWaitGraph.)
  {
    std::vector<Oid> rest;
    if (previous != kInvalidOid) rest.push_back(previous);
    if (to != kInvalidOid) rest.push_back(to);
    std::sort(rest.begin(), rest.end());
    for (Oid oid : rest) {
      const uint32_t k = router_.ShardOf(oid);
      OCB_RETURN_NOT_OK(shards_[k]->AcquireLock(ContextFor(txn, k), oid,
                                                LockMode::kExclusive));
    }
  }
  Object target;
  const bool self_target = to == from;
  if (to != kInvalidOid && !self_target) {
    // A vanished target surfaces here, while nothing is written yet.
    OCB_ASSIGN_OR_RETURN(target, shards_[to_shard]->PeekObject(to));
  }
  {
    Object* absorbing = self_target ? &source : &target;
    if (to != kInvalidOid &&
        absorbing->EncodedSize() + sizeof(Oid) >
            shards_[0]->object_store()->max_object_size()) {
      return Status::NoSpace(
          Format("backref array of oid %llu would exceed page capacity",
                 (unsigned long long)to));
    }
  }
  // Unlink the previous target's backref.
  if (previous == from) {
    auto it = std::find(source.backrefs.begin(), source.backrefs.end(),
                        from);
    if (it != source.backrefs.end()) source.backrefs.erase(it);
  } else if (previous != kInvalidOid) {
    auto old_read = shards_[prev_shard]->PeekObject(previous);
    if (old_read.ok()) {
      Object old_target = std::move(old_read).value();
      auto it = std::find(old_target.backrefs.begin(),
                          old_target.backrefs.end(), from);
      if (it != old_target.backrefs.end()) {
        old_target.backrefs.erase(it);
        OCB_RETURN_NOT_OK(shards_[prev_shard]->PutObject(
            ContextFor(txn, prev_shard), old_target));
      }
    }
  }
  source.orefs[slot] = to;
  if (self_target) {
    source.backrefs.push_back(from);
    return shards_[from_shard]->PutObject(from_ctx, source);
  }
  OCB_RETURN_NOT_OK(shards_[from_shard]->PutObject(from_ctx, source));
  if (to != kInvalidOid) {
    target.backrefs.push_back(from);
    OCB_RETURN_NOT_OK(
        shards_[to_shard]->PutObject(ContextFor(txn, to_shard), target));
  }
  return Status::OK();
}

Status ShardedDatabase::DeleteObject(ShardedTransaction* txn, Oid oid) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "DeleteObject"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "DeleteObject"));
  OCB_RETURN_NOT_OK(RefuseNonLocking(txn, "DeleteObject"));
  const uint32_t owner = router_.ShardOf(oid);
  if (router_.shard_count() == 1) {
    return shards_[0]->DeleteObject(ContextFor(txn, 0), oid);
  }
  TransactionContext* owner_ctx = ContextFor(txn, owner);
  OCB_RETURN_NOT_OK(
      shards_[owner]->AcquireLock(owner_ctx, oid, LockMode::kExclusive));
  OCB_ASSIGN_OR_RETURN(Object obj, shards_[owner]->PeekObject(oid));
  // X-lock the whole neighborhood (the X on `oid` freezes its arrays).
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
    const uint32_t k = router_.ShardOf(n);
    OCB_RETURN_NOT_OK(
        shards_[k]->AcquireLock(ContextFor(txn, k), n,
                                LockMode::kExclusive));
  }
  // Patch *remote* neighbors here (the owning shard's DeleteObject below
  // cannot see them); iteration mirrors Database::DeleteObject so
  // duplicate links unlink symmetrically.
  for (Oid target : obj.orefs) {
    if (target == kInvalidOid) continue;
    const uint32_t k = router_.ShardOf(target);
    if (k == owner) continue;
    auto tr = shards_[k]->PeekObject(target);
    if (!tr.ok()) continue;  // Target already gone.
    Object t = std::move(tr).value();
    auto it = std::find(t.backrefs.begin(), t.backrefs.end(), oid);
    if (it != t.backrefs.end()) {
      t.backrefs.erase(it);
      OCB_RETURN_NOT_OK(
          shards_[k]->PutObject(ContextFor(txn, k), t));
    }
  }
  for (Oid referer : obj.backrefs) {
    const uint32_t k = router_.ShardOf(referer);
    if (k == owner) continue;
    auto rr = shards_[k]->PeekObject(referer);
    if (!rr.ok()) continue;
    Object r = std::move(rr).value();
    if (std::find(r.orefs.begin(), r.orefs.end(), oid) == r.orefs.end()) {
      continue;
    }
    for (Oid& slot : r.orefs) {
      if (slot == oid) slot = kInvalidOid;
    }
    OCB_RETURN_NOT_OK(shards_[k]->PutObject(ContextFor(txn, k), r));
  }
  // Local half: same-shard neighbor unlinking, extent removal, record
  // delete. Remote neighbors read back NotFound there and are skipped.
  return shards_[owner]->DeleteObject(owner_ctx, oid);
}

Status ShardedDatabase::GetObjectsBatched(ShardedTransaction* txn,
                                          std::span<const Oid> oids,
                                          std::vector<Object>* out) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "GetMany"));
  out->reserve(out->size() + oids.size());
  if (txn != nullptr && txn->mode() == TxnMode::k2PL) {
    // One ascending-oid S-lock pass across the owning shards; the
    // per-oid reads below then re-acquire idempotently (no blocking, no
    // deadlock — all GetMany footprints ascend the same global order).
    // SI/OCC transactions skip it: their reads never take S locks.
    std::vector<Oid> footprint(oids.begin(), oids.end());
    std::sort(footprint.begin(), footprint.end());
    footprint.erase(std::unique(footprint.begin(), footprint.end()),
                    footprint.end());
    for (Oid oid : footprint) {
      const uint32_t k = router_.ShardOf(oid);
      OCB_RETURN_NOT_OK(shards_[k]->AcquireLock(ContextFor(txn, k), oid,
                                                LockMode::kShared));
    }
  }
  for (Oid oid : oids) {
    auto obj = GetObject(txn, oid);
    if (obj.ok()) {
      out->push_back(std::move(obj).value());
    } else if (!obj.status().IsNotFound()) {
      return obj.status();
    }
  }
  return Status::OK();
}

Status ShardedDatabase::AcquireWriteFootprint(ShardedTransaction* txn,
                                              std::vector<Oid> oids) {
  OCB_RETURN_NOT_OK(RefuseFinished(txn, "ApplyWriteBatch"));
  OCB_RETURN_NOT_OK(RefuseReadOnly(txn, "ApplyWriteBatch"));
  if (txn == nullptr) return Status::OK();
  if (txn->optimistic()) {
    // SI/OCC defer their write footprint to commit-time finalization;
    // the batch declaration is still a cache-warm hint.
    if (oids.size() > 1) (void)PrefetchObjects(oids);
    return Status::OK();
  }
  std::sort(oids.begin(), oids.end());
  oids.erase(std::unique(oids.begin(), oids.end()), oids.end());
  for (Oid oid : oids) {
    const uint32_t k = router_.ShardOf(oid);
    OCB_RETURN_NOT_OK(shards_[k]->AcquireLock(ContextFor(txn, k), oid,
                                              LockMode::kExclusive));
  }
  return Status::OK();
}

void ShardedDatabase::SetObserver(AccessObserver* observer) {
  for (auto& shard : shards_) shard->SetObserver(observer);
}

void ShardedDatabase::BeginTransaction() {
  for (auto& shard : shards_) shard->BeginTransaction();
}

void ShardedDatabase::EndTransaction() {
  for (auto& shard : shards_) shard->EndTransaction();
}

Status ShardedDatabase::ColdRestart() {
  // Refuse up front, before restarting ANY shard: per-shard refusal
  // alone would leave the deployment half cold-restarted when shard k
  // is busy but shards 0..k-1 already dropped their caches.
  for (uint32_t k = 0; k < shard_count(); ++k) {
    if (shards_[k]->lock_manager()->locked_object_count() > 0) {
      return Status::InvalidArgument(
          Format("ColdRestart refused: shard %u has in-flight "
                 "transactions holding object locks; commit or abort "
                 "them first",
                 k));
    }
    if (shards_[k]->read_views()->open_count() > 0) {
      return Status::InvalidArgument(
          Format("ColdRestart refused: shard %u has open snapshot "
                 "ReadViews still pinned; finish the readers first",
                 k));
    }
  }
  for (auto& shard : shards_) {
    OCB_RETURN_NOT_OK(shard->ColdRestart());
  }
  return Status::OK();
}

uint64_t ShardedDatabase::object_count() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->object_count();
  return total;
}

std::vector<Oid> ShardedDatabase::ExtentSnapshot(ClassId class_id) {
  std::vector<Oid> out;
  for (auto& shard : shards_) {
    std::vector<Oid> part = shard->ExtentSnapshot(class_id);
    out.insert(out.end(), part.begin(), part.end());
  }
  // Ascending oids: the walk order (and thus every root pool and Scan)
  // is identical for every shard count over the same logical database.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Oid> ShardedDatabase::ExtentSnapshot(ClassId class_id,
                                                 ShardedTransaction* txn) {
  if (txn == nullptr || txn->mode() == TxnMode::k2PL) {
    return ExtentSnapshot(class_id);
  }
  std::vector<Oid> out;
  for (uint32_t k = 0; k < shard_count(); ++k) {
    // Each shard filters its own membership at the transaction's global
    // snapshot point through its per-shard context (readers and SI
    // writers). OCC scans materialize the context so each shard records
    // its extent version for commit-time phantom validation.
    TransactionContext* ctx = txn->read_only() ? txn->contexts_[k].get()
                                               : ContextFor(txn, k);
    std::vector<Oid> part = shards_[k]->ExtentSnapshot(class_id, ctx);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Oid> ShardedDatabase::LiveOidsSnapshot() {
  std::vector<Oid> out;
  for (auto& shard : shards_) {
    std::vector<Oid> part = shard->LiveOidsSnapshot();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool ShardedDatabase::ContainsObject(Oid oid) {
  return shards_[router_.ShardOf(oid)]->ContainsObject(oid);
}

uint64_t ShardedDatabase::CollectVersionGarbage() {
  uint64_t total = 0;
  for (auto& shard : shards_) total += shard->CollectVersionGarbage();
  return total;
}

uint64_t ShardedDatabase::SimNowNanos() const {
  uint64_t total = think_clock_.now_nanos();
  for (const auto& shard : shards_) total += shard->SimNowNanos();
  return total;
}

IoCounters ShardedDatabase::IoCountersFor(IoScope scope) const {
  IoCounters out;
  uint64_t reads = 0;
  uint64_t writes = 0;
  for (const auto& shard : shards_) {
    const IoCounters c = shard->IoCountersFor(scope);
    reads += c.reads.load(std::memory_order_relaxed);
    writes += c.writes.load(std::memory_order_relaxed);
  }
  out.reads.store(reads, std::memory_order_relaxed);
  out.writes.store(writes, std::memory_order_relaxed);
  return out;
}

void ShardedDatabase::SetIoScope(IoScope scope) {
  for (auto& shard : shards_) shard->SetIoScope(scope);
}

BufferPoolStats ShardedDatabase::PoolStats() const {
  BufferPoolStats out;
  uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;
  for (const auto& shard : shards_) {
    const BufferPoolStats s = shard->PoolStats();
    hits += s.hits.load(std::memory_order_relaxed);
    misses += s.misses.load(std::memory_order_relaxed);
    evictions += s.evictions.load(std::memory_order_relaxed);
    writebacks += s.dirty_writebacks.load(std::memory_order_relaxed);
  }
  out.hits.store(hits, std::memory_order_relaxed);
  out.misses.store(misses, std::memory_order_relaxed);
  out.evictions.store(evictions, std::memory_order_relaxed);
  out.dirty_writebacks.store(writebacks, std::memory_order_relaxed);
  return out;
}

ObjectStoreStats ShardedDatabase::StoreStats() const {
  ObjectStoreStats out;
  uint64_t objects = 0, pages = 0, relocations = 0, bytes = 0;
  for (const auto& shard : shards_) {
    const ObjectStoreStats s = shard->StoreStats();
    objects += s.objects.load(std::memory_order_relaxed);
    pages += s.data_pages.load(std::memory_order_relaxed);
    relocations += s.relocations.load(std::memory_order_relaxed);
    bytes += s.bytes_stored.load(std::memory_order_relaxed);
  }
  out.objects.store(objects, std::memory_order_relaxed);
  out.data_pages.store(pages, std::memory_order_relaxed);
  out.relocations.store(relocations, std::memory_order_relaxed);
  out.bytes_stored.store(bytes, std::memory_order_relaxed);
  return out;
}

Status ShardedDatabase::FlushPools() {
  for (auto& shard : shards_) {
    OCB_RETURN_NOT_OK(shard->FlushPools());
  }
  return Status::OK();
}

Status ShardedDatabase::PrefetchObjects(std::span<const Oid> oids) {
  if (oids.size() < 2) return Status::OK();
  std::vector<std::vector<Oid>> per_shard(router_.shard_count());
  for (Oid oid : oids) {
    per_shard[router_.ShardOf(oid)].push_back(oid);
  }
  Status first_error;
  for (uint32_t k = 0; k < router_.shard_count(); ++k) {
    if (per_shard[k].empty()) continue;
    Status st = shards_[k]->PrefetchObjects(per_shard[k]);
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

Status SaveShardedSnapshot(ShardedDatabase* db, const std::string& path) {
  for (uint32_t k = 0; k < db->shard_count(); ++k) {
    OCB_RETURN_NOT_OK(
        SaveSnapshot(db->shard(k), path + Format(".shard%u", k)));
  }
  return Status::OK();
}

Status LoadShardedSnapshot(ShardedDatabase* db, const std::string& path) {
  for (uint32_t k = 0; k < db->shard_count(); ++k) {
    OCB_RETURN_NOT_OK(
        LoadSnapshot(db->shard(k), path + Format(".shard%u", k)));
  }
  // Shards now hold the loaded schema; refresh the master descriptors.
  db->SetMasterSchemaFromShards();
  return Status::OK();
}

}  // namespace ocb
