#include "sharding/cross_shard_coordinator.h"

#include <chrono>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "wal/killpoint.h"
#include "wal/wal_writer.h"

namespace ocb {

namespace {

uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Registry histogram of the per-txn 2PC section time (prepare through
/// stamp). Same measurement as twopc_nanos_ — two sinks, one clock read.
void RecordTwopcSection(uint64_t nanos) {
#ifndef OCB_OBS_DISABLED
  static obs::LatencyHistogram* h =
      obs::MetricsRegistry::Global().GetHistogram("twopc.section");
  h->Record(nanos);
#else
  (void)nanos;
#endif
}

}  // namespace

CommitTs CrossShardCoordinator::BeginFastPathCommit() {
  MutexLock lock(inflight_mu_);
  const CommitTs ts = NextTimestamp();
  inflight_commits_.insert(ts);
  return ts;
}

void CrossShardCoordinator::EndFastPathCommit(CommitTs ts) {
  MutexLock lock(inflight_mu_);
  inflight_commits_.erase(ts);
}

void CrossShardCoordinator::AdvanceTimestampTo(CommitTs ts) {
  CommitTs cur = next_ts_.load(std::memory_order_relaxed);
  while (cur < ts && !next_ts_.compare_exchange_weak(
                         cur, ts, std::memory_order_relaxed)) {
  }
}

Status CrossShardCoordinator::LogCoordinatedCommit(
    ShardedTransaction* txn, const std::vector<uint32_t>& writers,
    CommitTs ts) {
  for (uint32_t k : writers) {
    OCB_RETURN_NOT_OK(
        shards_[k]->WalAppendTxn(txn->contexts_[k].get(), ts,
                                 /*coordinated=*/true));
  }
  for (uint32_t k : writers) {
    OCB_RETURN_NOT_OK(shards_[k]->WalForce());
  }
  wal::WalRecord marker;
  marker.type = wal::WalRecordType::kCoordMarker;
  marker.txn_id = txn->id();
  marker.commit_ts = ts;
  return coord_wal_->Append(marker);
}

void CrossShardCoordinator::OpenGlobalSnapshot(ShardedTransaction* txn) {
  // Holding commit_mu_ across every per-shard registration is what makes
  // S a consistent cut against *2PC* commits: they stamp all their
  // shards under this same mutex, so S either precedes all of commit T's
  // stamps or follows all of them — never lands in between.
  MutexLock lock(commit_mu_);
  // Fast-path commits stamp outside commit_mu_, so additionally pin S
  // strictly below the oldest timestamp still being stamped: a commit
  // with ts <= S is therefore always *fully* stamped (it retired itself
  // from the in-flight set), and a half-stamped one is simply not yet
  // visible — the reader sees its pre-images on every shard.
  CommitTs s;
  {
    MutexLock inflight(inflight_mu_);
    s = next_ts_.load(std::memory_order_relaxed);
    if (!inflight_commits_.empty()) {
      s = std::min(s, *inflight_commits_.begin() - 1);
    }
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    txn->contexts_[k] = shards_[k]->BeginSnapshotTxnAt(s, txn->id());
  }
  txn->snapshot_ts_ = s;
  snapshots_opened_.fetch_add(1, std::memory_order_relaxed);
}

void CrossShardCoordinator::OpenGlobalSiContexts(ShardedTransaction* txn) {
  // Same consistent-cut choreography as OpenGlobalSnapshot — an SI
  // writer's reads are a reader's reads until commit.
  MutexLock lock(commit_mu_);
  CommitTs s;
  {
    MutexLock inflight(inflight_mu_);
    s = next_ts_.load(std::memory_order_relaxed);
    if (!inflight_commits_.empty()) {
      s = std::min(s, *inflight_commits_.begin() - 1);
    }
  }
  for (size_t k = 0; k < shards_.size(); ++k) {
    txn->contexts_[k] = shards_[k]->BeginSiWriterTxnAt(s, txn->id());
  }
  txn->snapshot_ts_ = s;
  snapshots_opened_.fetch_add(1, std::memory_order_relaxed);
}

Status CrossShardCoordinator::FinalizeParticipants(ShardedTransaction* txn) {
  if (txn->read_only()) return Status::OK();
  for (uint32_t k = 0; k < shards_.size(); ++k) {
    TransactionContext* ctx = txn->contexts_[k].get();
    if (ctx == nullptr) continue;
    Status st = shards_[k]->FinalizeCc(ctx);
    if (!st.ok()) {
      AbortParticipants(txn);
      return st;
    }
  }
  return Status::OK();
}

Status CrossShardCoordinator::Commit(ShardedTransaction* txn) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (!txn->active()) {
    return Status::InvalidArgument("sharded txn is not active");
  }
  txn->FreezeTouched();  // Commit releases the locks the count reads.
  Status first_failure = Status::OK();
  if (txn->read_only()) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      TransactionContext* ctx = txn->contexts_[k].get();
      if (ctx == nullptr) continue;
      Status st = shards_[k]->CommitTxn(ctx);
      if (!st.ok() && first_failure.ok()) first_failure = st;
    }
    txn->state_ = TxnState::kCommitted;
    return first_failure;
  }

  // SI/OCC validation + buffered-write apply, before anything is
  // classified or logged; a validation loss rolled everything back.
  OCB_RETURN_NOT_OK(FinalizeParticipants(txn));

  // Split participants: only shards the transaction *wrote* have pending
  // versions to stamp and therefore take part in 2PC; pure-read
  // participants just release their S locks (finalization above drained
  // every write buffer, so has_writes() ≡ a non-empty undo log here).
  std::vector<uint32_t> writers;
  std::vector<uint32_t> readers;
  for (uint32_t k = 0; k < shards_.size(); ++k) {
    TransactionContext* ctx = txn->contexts_[k].get();
    if (ctx == nullptr) continue;
    if (ctx->has_writes()) {
      writers.push_back(k);
    } else {
      readers.push_back(k);
    }
  }

  if (writers.size() <= 1) {
    // Fast path: no prepare, no commit-mutex serialization, no 2PC
    // accounting. The timestamp is registered in-flight until stamping
    // completes so OpenGlobalSnapshot never pins past a half-stamped
    // commit (see BeginFastPathCommit).
    if (!writers.empty()) {
      const uint32_t k = writers[0];
      const CommitTs ts = BeginFastPathCommit();
      // Redo precedes CommitTxnAt, which clears the undo log the record
      // is built from and releases the locks that order dependents.
      Status wal_st =
          shards_[k]->WalAppendTxn(txn->contexts_[k].get(), ts,
                                   /*coordinated=*/false);
      Status st = shards_[k]->CommitTxnAt(txn->contexts_[k].get(), ts);
      EndFastPathCommit(ts);
      if (shards_[k]->wal_enabled()) {
        // Force before the ack: this shard's log, then any coordinator
        // marker a predecessor 2PC commit appended but has not yet
        // forced — this commit may depend on it, and an ack here must
        // not outlive the predecessor's recovery.
        if (wal_st.ok()) wal_st = shards_[k]->WalForce();
        if (wal_st.ok() && coord_wal_ != nullptr) {
          wal_st = coord_wal_->ForceIfDirty();
        }
      }
      if (!st.ok() && first_failure.ok()) first_failure = st;
      if (!wal_st.ok() && first_failure.ok()) first_failure = wal_st;
    }
    for (uint32_t k : readers) {
      Status st = shards_[k]->CommitTxn(txn->contexts_[k].get());
      if (!st.ok() && first_failure.ok()) first_failure = st;
    }
    txn->state_ = TxnState::kCommitted;
    fast_path_commits_.fetch_add(1, std::memory_order_relaxed);
    return first_failure;
  }

  // Two-phase commit.
  const auto start = std::chrono::steady_clock::now();
  {
    obs::TraceSpan prepare_span("2pc.prepare", "txn", txn->id(), "writers",
                                writers.size());
    for (uint32_t k : writers) {
      Status st = shards_[k]->PrepareTxn(txn->contexts_[k].get());
      prepares_.fetch_add(1, std::memory_order_relaxed);
      if (!st.ok()) {
        // A participant refused to promise (lifecycle bug upstream): the
        // only safe decision is abort-everything.
        AbortParticipants(txn);
        twopc_nanos_.fetch_add(NanosSince(start),
                               std::memory_order_relaxed);
        return st;
      }
    }
  }
  if (commit_failpoint_ && commit_failpoint_()) {
    // Injected coordinator crash between prepare and commit: the decision
    // becomes abort, and every participant — all merely prepared, none
    // stamped — must roll back. This is the atomicity window the 2PC
    // tests exercise.
    injected_aborts_.fetch_add(1, std::memory_order_relaxed);
    Status st = AbortParticipants(txn);
    txn->twopc_nanos_ = NanosSince(start);
    twopc_nanos_.fetch_add(txn->twopc_nanos_, std::memory_order_relaxed);
    if (!st.ok()) return st;
    return Status::Aborted("2PC commit failpoint injected an abort");
  }
  Status wal_st = Status::OK();
  {
    // Decision: commit. One timestamp for every shard, stamped under the
    // commit mutex so no global snapshot can interleave (see
    // OpenGlobalSnapshot). Durability before visibility: participant
    // redo records are appended and forced and the coordinator marker
    // appended inside the same mutex section, before any CommitTxnAt
    // releases a lock — so no dependent can commit (let alone force its
    // ack) ahead of this commit's durability choreography.
    obs::TraceSpan commit_span("2pc.commit", "txn", txn->id(), "writers",
                               writers.size());
    MutexLock lock(commit_mu_);
    const CommitTs ts = NextTimestamp();
    if (coord_wal_ != nullptr) {
      wal_st = LogCoordinatedCommit(txn, writers, ts);
    }
    for (uint32_t k : writers) {
      Status st = shards_[k]->CommitTxnAt(txn->contexts_[k].get(), ts);
      if (!st.ok() && first_failure.ok()) first_failure = st;
    }
  }
  for (uint32_t k : readers) {
    Status st = shards_[k]->CommitTxn(txn->contexts_[k].get());
    if (!st.ok() && first_failure.ok()) first_failure = st;
  }
  // Marker force is the commit point on disk: after it, recovery replays
  // this commit on every participant; before it, on none.
  if (coord_wal_ != nullptr && wal_st.ok()) wal_st = coord_wal_->Force();
  if (!wal_st.ok() && first_failure.ok()) first_failure = wal_st;
  txn->state_ = TxnState::kCommitted;
  txn->twopc_nanos_ = NanosSince(start);
  twopc_nanos_.fetch_add(txn->twopc_nanos_, std::memory_order_relaxed);
  RecordTwopcSection(txn->twopc_nanos_);
  cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
  return first_failure;
}

Status CrossShardCoordinator::CommitGrouped(ShardedTransaction* txn) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (!txn->active()) {
    return Status::InvalidArgument("sharded txn is not active");
  }
  // Readers only close per-shard ReadViews — nothing to amortize, and
  // they must never wait behind a writer batch.
  if (txn->read_only()) return Commit(txn);
  // Finalize on the submitter's thread, not the batch leader's: SI/OCC
  // write-set locking may block, and a leader blocked on one member's
  // locks would stall the whole batch (same discipline as the single
  // store's CommitTxnGrouped). A validation loss aborts here and never
  // enters the pipeline.
  OCB_RETURN_NOT_OK(FinalizeParticipants(txn));
  return pipeline_.Submit(txn);
}

void CrossShardCoordinator::CommitBatch(
    const std::vector<CommitPipeline::Request*>& batch) {
  struct Member {
    CommitPipeline::Request* req = nullptr;
    ShardedTransaction* txn = nullptr;
    std::vector<uint32_t> writers;
    std::vector<uint32_t> readers;
    CommitTs ts = 0;
    Status failure;       // First per-shard failure.
    bool finished = false;  // Aborted before the stamping section.
  };
  std::vector<Member> members(batch.size());
  std::vector<Member*> fast;
  std::vector<Member*> twopc;
  for (size_t i = 0; i < batch.size(); ++i) {
    Member& m = members[i];
    m.req = batch[i];
    m.txn = static_cast<ShardedTransaction*>(batch[i]->handle);
    m.txn->FreezeTouched();
    for (uint32_t k = 0; k < shards_.size(); ++k) {
      TransactionContext* ctx = m.txn->contexts_[k].get();
      if (ctx == nullptr) continue;
      // Members were finalized in CommitGrouped before Submit, so
      // has_writes() ≡ a non-empty undo log.
      (ctx->has_writes() ? m.writers : m.readers).push_back(k);
    }
    (m.writers.size() <= 1 ? fast : twopc).push_back(&m);
  }
  // --- Fast-path members: ONE registry pass draws every timestamp (the
  // snapshot-atomicity argument of BeginFastPathCommit holds per member),
  // stamping runs outside any coordinator mutex, ONE pass retires them.
  if (!fast.empty()) {
    {
      MutexLock inflight(inflight_mu_);
      for (Member* m : fast) {
        if (m->writers.empty()) continue;
        m->ts = NextTimestamp();
        inflight_commits_.insert(m->ts);
      }
    }
    std::set<uint32_t> fast_wal_shards;
    for (Member* m : fast) {
      if (!m->writers.empty()) {
        const uint32_t k = m->writers[0];
        // Redo precedes CommitTxnAt (which clears the undo log the
        // record is built from); the force is batched below.
        Status wst = shards_[k]->WalAppendTxn(m->txn->contexts_[k].get(),
                                              m->ts,
                                              /*coordinated=*/false);
        if (!wst.ok() && m->failure.ok()) m->failure = wst;
        if (shards_[k]->wal_enabled()) {
          fast_wal_shards.insert(k);
          wal_killpoint::MaybeKill("mid-batch");
        }
        Status st = shards_[k]->CommitTxnAt(m->txn->contexts_[k].get(),
                                            m->ts);
        if (!st.ok() && m->failure.ok()) m->failure = st;
      }
      for (uint32_t k : m->readers) {
        Status st = shards_[k]->CommitTxn(m->txn->contexts_[k].get());
        if (!st.ok() && m->failure.ok()) m->failure = st;
      }
      m->txn->state_ = TxnState::kCommitted;
      fast_path_commits_.fetch_add(1, std::memory_order_relaxed);
      m->req->status = m->failure;
    }
    {
      MutexLock inflight(inflight_mu_);
      for (Member* m : fast) {
        if (m->ts != 0) inflight_commits_.erase(m->ts);
      }
    }
    // ONE force per participating shard for the whole batch, plus any
    // coordinator marker a predecessor 2PC commit still owes a force
    // for. The pipeline unblocks members only after this body returns,
    // so every force lands before any ack.
    Status fast_wal_st = Status::OK();
    for (uint32_t k : fast_wal_shards) {
      Status st = shards_[k]->WalForce();
      if (!st.ok() && fast_wal_st.ok()) fast_wal_st = st;
    }
    if (!fast_wal_shards.empty() && coord_wal_ != nullptr &&
        fast_wal_st.ok()) {
      fast_wal_st = coord_wal_->ForceIfDirty();
    }
    if (!fast_wal_st.ok()) {
      for (Member* m : fast) {
        if (!m->writers.empty() && m->req->status.ok()) {
          m->req->status = fast_wal_st;
        }
      }
    }
  }

  // --- 2PC members: per-member prepare + failpoint outside the commit
  // mutex (an injected abort kills only that member), then ONE
  // commit-mutex section draws and stamps every survivor.
  if (!twopc.empty()) {
    const auto start = std::chrono::steady_clock::now();
    {
      obs::TraceSpan prepare_span("2pc.prepare", "members", twopc.size());
      for (Member* m : twopc) {
        for (uint32_t k : m->writers) {
          Status st = shards_[k]->PrepareTxn(m->txn->contexts_[k].get());
          prepares_.fetch_add(1, std::memory_order_relaxed);
          if (!st.ok()) {
            AbortParticipants(m->txn);
            m->req->status = st;
            m->finished = true;
            break;
          }
        }
        if (m->finished) continue;
        if (commit_failpoint_ && commit_failpoint_()) {
          injected_aborts_.fetch_add(1, std::memory_order_relaxed);
          Status st = AbortParticipants(m->txn);
          m->req->status =
              st.ok()
                  ? Status::Aborted("2PC commit failpoint injected an abort")
                  : st;
          m->finished = true;
        }
      }
    }
    Status wal_st = Status::OK();
    {
      obs::TraceSpan commit_span("2pc.commit", "members", twopc.size());
      MutexLock lock(commit_mu_);
      if (coord_wal_ != nullptr) {
        // Batched durability choreography, same invariant as the
        // per-txn path but amortized: every survivor's participant
        // records first, ONE force per participating shard, then every
        // marker — so any marker that reaches disk has all its records
        // durable — and all of it before the stamping loop below
        // releases a single lock.
        std::set<uint32_t> wal_shards;
        for (Member* m : twopc) {
          if (m->finished) continue;
          m->ts = NextTimestamp();
          for (uint32_t k : m->writers) {
            Status st = shards_[k]->WalAppendTxn(
                m->txn->contexts_[k].get(), m->ts, /*coordinated=*/true);
            if (!st.ok() && wal_st.ok()) wal_st = st;
            wal_shards.insert(k);
          }
          wal_killpoint::MaybeKill("mid-batch");
        }
        for (uint32_t k : wal_shards) {
          Status st = shards_[k]->WalForce();
          if (!st.ok() && wal_st.ok()) wal_st = st;
        }
        for (Member* m : twopc) {
          if (m->finished) continue;
          wal::WalRecord marker;
          marker.type = wal::WalRecordType::kCoordMarker;
          marker.txn_id = m->txn->id();
          marker.commit_ts = m->ts;
          Status st = coord_wal_->Append(marker);
          if (!st.ok() && wal_st.ok()) wal_st = st;
        }
      }
      for (Member* m : twopc) {
        if (m->finished) continue;
        if (m->ts == 0) m->ts = NextTimestamp();
        for (uint32_t k : m->writers) {
          Status st = shards_[k]->CommitTxnAt(m->txn->contexts_[k].get(),
                                              m->ts);
          if (!st.ok() && m->failure.ok()) m->failure = st;
        }
      }
    }
    // Marker force = the batch's on-disk commit point for every member.
    if (coord_wal_ != nullptr && wal_st.ok()) {
      wal_st = coord_wal_->ForceIfDirty();
    }
    uint64_t survivors = 0;
    for (Member* m : twopc) {
      if (m->finished) continue;
      for (uint32_t k : m->readers) {
        Status st = shards_[k]->CommitTxn(m->txn->contexts_[k].get());
        if (!st.ok() && m->failure.ok()) m->failure = st;
      }
      m->txn->state_ = TxnState::kCommitted;
      cross_shard_commits_.fetch_add(1, std::memory_order_relaxed);
      if (m->failure.ok()) m->failure = wal_st;
      m->req->status = m->failure;
      ++survivors;
    }
    // 2PC time: the whole section is shared work; attribute an even
    // share to each *surviving* member (the aggregate — what the bench
    // reports — stays exact; aborted members rolled back before the
    // stamping section and are not credited commit time).
    const uint64_t section = NanosSince(start);
    if (survivors > 0) {
      const uint64_t share = section / survivors;
      for (Member* m : twopc) {
        if (!m->finished) m->txn->twopc_nanos_ = share;
      }
    }
    twopc_nanos_.fetch_add(section, std::memory_order_relaxed);
    RecordTwopcSection(section);
  }
}

Status CrossShardCoordinator::Abort(ShardedTransaction* txn) {
  if (txn == nullptr) return Status::InvalidArgument("null txn");
  if (txn->state() == TxnState::kAborted) return Status::OK();
  if (!txn->active()) {
    return Status::InvalidArgument("sharded txn is not active");
  }
  return AbortParticipants(txn);
}

Status CrossShardCoordinator::AbortParticipants(ShardedTransaction* txn) {
  txn->FreezeTouched();
  Status first_failure = Status::OK();
  // One globally drawn seal timestamp for every writer participant keeps
  // each shard's chains on the single global axis (drawn lazily: pure
  // readers and read-only transactions seal nothing).
  CommitTs seal_ts = 0;
  for (uint32_t k = 0; k < shards_.size(); ++k) {
    TransactionContext* ctx = txn->contexts_[k].get();
    if (ctx == nullptr) continue;
    Status st;
    if (!txn->read_only() && !ctx->undo_log().empty()) {
      if (seal_ts == 0) seal_ts = NextTimestamp();
      st = shards_[k]->AbortTxnAt(ctx, seal_ts);
    } else {
      st = shards_[k]->AbortTxn(ctx);
    }
    if (!st.ok() && first_failure.ok()) first_failure = st;
  }
  txn->state_ = TxnState::kAborted;
  aborts_.fetch_add(1, std::memory_order_relaxed);
  return first_failure;
}

CrossShardStats CrossShardCoordinator::stats() const {
  CrossShardStats out;
  out.fast_path_commits =
      fast_path_commits_.load(std::memory_order_relaxed);
  out.cross_shard_commits =
      cross_shard_commits_.load(std::memory_order_relaxed);
  out.prepares = prepares_.load(std::memory_order_relaxed);
  out.aborts = aborts_.load(std::memory_order_relaxed);
  out.injected_aborts = injected_aborts_.load(std::memory_order_relaxed);
  out.snapshots_opened =
      snapshots_opened_.load(std::memory_order_relaxed);
  out.twopc_nanos = twopc_nanos_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ocb
