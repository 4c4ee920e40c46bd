#include "concurrency/version_store.h"

#include <algorithm>
#include <cassert>

#include "concurrency/read_view.h"
#include "obs/trace.h"

namespace ocb {

namespace {
// Shard count of the chain table. Follows the storage layer's striping
// convention: OCB_LATCH_STRIPES, when defined, caps it so the degenerate
// single-stripe CI build also proves the version store correct with one
// shard.
#ifdef OCB_LATCH_STRIPES
constexpr size_t kConfiguredShards =
    OCB_LATCH_STRIPES < 16 ? OCB_LATCH_STRIPES : 16;
constexpr size_t kChainShards = kConfiguredShards < 1 ? 1 : kConfiguredShards;
#else
constexpr size_t kChainShards = 16;
#endif
}  // namespace

VersionStore::VersionStore() {
  shards_.reserve(kChainShards);
  for (size_t i = 0; i < kChainShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(i));
  }
}

void VersionStore::PublishVersion(TxnId txn, Oid oid, Version version) {
  {
    Shard& shard = shard_of(oid);
    MutexLock lock(shard.mu);
    auto& chain = shard.chains[oid];
    if (chain.empty()) {
      live_chains_.fetch_add(1, std::memory_order_relaxed);
    }
    chain.push_back(std::move(version));
  }
  {
    MutexLock lock(pending_mu_);
    pending_by_txn_[txn].push_back(oid);
  }
  versions_published_.fetch_add(1, std::memory_order_relaxed);
  live_versions_.fetch_add(1, std::memory_order_relaxed);
}

void VersionStore::PublishPreImage(TxnId txn, Oid oid,
                                   std::vector<uint8_t> pre_image) {
  Version v;
  v.owner = txn;
  v.pre_image = std::move(pre_image);
  PublishVersion(txn, oid, std::move(v));
}

void VersionStore::PublishCreation(TxnId txn, Oid oid) {
  Version v;
  v.owner = txn;
  v.creation = true;
  PublishVersion(txn, oid, std::move(v));
}

std::vector<Oid> VersionStore::TakePending(TxnId txn) {
  MutexLock lock(pending_mu_);
  std::vector<Oid> oids;
  auto it = pending_by_txn_.find(txn);
  if (it != pending_by_txn_.end()) {
    oids = std::move(it->second);
    pending_by_txn_.erase(it);
  }
  return oids;
}

void VersionStore::StampOids(TxnId txn, const std::vector<Oid>& oids,
                             CommitTs ts, bool aborted) {
  for (Oid oid : oids) {
    Shard& shard = shard_of(oid);
    MutexLock shard_lock(shard.mu);
    auto cit = shard.chains.find(oid);
    if (cit == shard.chains.end()) continue;
    // The pending version is the chain tail (X lock ⇒ at most one, and
    // nothing can append behind it until the lock is released).
    Version& tail = cit->second.back();
    assert(tail.commit_ts == kPendingTs && tail.owner == txn);
    (void)txn;
    tail.commit_ts = ts;
    tail.owner = kInvalidTxnId;
    if (!aborted) {
      // Committed-write stamp for OCC/SI validation (see LastWriteTs).
      // Sealed aborts don't count: the object's committed state did not
      // change, so readers that observed the old stamp stay valid.
      shard.last_write_ts[oid] = ts;
    }
    auto& counter = aborted ? versions_discarded_ : versions_stamped_;
    counter.fetch_add(1, std::memory_order_relaxed);
  }
}

CommitTs VersionStore::StampAll(TxnId txn, bool aborted,
                                CommitTs external_ts) {
  const std::vector<Oid> oids = TakePending(txn);
  // commit_mu_ is held across the whole stamping loop: OpenSnapshot also
  // takes it, so a newborn view can never pin a timestamp whose commit is
  // only half stamped.
  MutexLock lock(commit_mu_);
  const CommitTs ts = external_ts == 0 ? ++last_commit_ts_ : external_ts;
  if (external_ts != 0 && external_ts > last_commit_ts_) {
    last_commit_ts_ = external_ts;
  }
  StampOids(txn, oids, ts, aborted);
  return ts;
}

CommitTs VersionStore::StampCommittedBatch(const std::vector<TxnId>& txns) {
  if (txns.empty()) return 0;
  std::vector<std::vector<Oid>> oid_sets;
  oid_sets.reserve(txns.size());
  for (TxnId txn : txns) oid_sets.push_back(TakePending(txn));
  // One commit-mutex acquisition covers every member's timestamp draw
  // and stamping loop — the serialized work group commit amortizes. Each
  // member still gets its own timestamp, so per-chain history is
  // identical to per-transaction commits.
  MutexLock lock(commit_mu_);
  CommitTs last = 0;
  for (size_t i = 0; i < txns.size(); ++i) {
    last = ++last_commit_ts_;
    StampOids(txns[i], oid_sets[i], last, /*aborted=*/false);
  }
  return last;
}

CommitTs VersionStore::StampCommitted(TxnId txn) {
  return StampAll(txn, /*aborted=*/false);
}

void VersionStore::StampAborted(TxnId txn) {
  StampAll(txn, /*aborted=*/true);
}

void VersionStore::StampCommittedAt(TxnId txn, CommitTs ts) {
  StampAll(txn, /*aborted=*/false, ts);
}

void VersionStore::StampAbortedAt(TxnId txn, CommitTs ts) {
  StampAll(txn, /*aborted=*/true, ts);
}

CommitTs VersionStore::latest() const {
  MutexLock lock(commit_mu_);
  return last_commit_ts_;
}

void VersionStore::AdvanceLatest(CommitTs ts) {
  MutexLock lock(commit_mu_);
  if (ts > last_commit_ts_) last_commit_ts_ = ts;
}

CommitTs VersionStore::OpenSnapshot(ReadViewRegistry* views) {
  MutexLock lock(commit_mu_);
  views->OpenAt(last_commit_ts_);
  return last_commit_ts_;
}

CommitTs VersionStore::OpenSnapshotAt(CommitTs ts, ReadViewRegistry* views) {
  MutexLock lock(commit_mu_);
  views->OpenAt(ts);
  return ts;
}

VersionLookup VersionStore::GetVisible(Oid oid, CommitTs snapshot_ts,
                                       std::vector<uint8_t>* out,
                                       bool revalidate) const {
  Shard& shard = shard_of(oid);
  MutexLock lock(shard.mu);
  auto it = shard.chains.find(oid);
  if (it != shard.chains.end()) {
    // Chains are ascending in commit_ts with any pending version (treated
    // as +infinity) at the tail, so the first entry newer than the
    // snapshot is the earliest one — exactly the state at snapshot_ts.
    for (const Version& v : it->second) {
      if (v.commit_ts <= snapshot_ts) continue;
      if (revalidate) {
        // The caller's first lookup counted this read as a fall-through;
        // the re-check caught a racing writer, so it was a chain hit.
        snapshot_current_.fetch_sub(1, std::memory_order_relaxed);
      }
      if (v.creation) return VersionLookup::kInvisible;
      snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
      *out = v.pre_image;
      return VersionLookup::kVersion;
    }
  }
  if (!revalidate) {
    snapshot_current_.fetch_add(1, std::memory_order_relaxed);
  }
  return VersionLookup::kUseCurrent;
}

CommitTs VersionStore::LastWriteTs(Oid oid) const {
  Shard& shard = shard_of(oid);
  MutexLock lock(shard.mu);
  auto it = shard.last_write_ts.find(oid);
  return it == shard.last_write_ts.end() ? 0 : it->second;
}

bool VersionStore::CreatedAfter(Oid oid, CommitTs snapshot_ts) const {
  Shard& shard = shard_of(oid);
  MutexLock lock(shard.mu);
  auto it = shard.chains.find(oid);
  if (it == shard.chains.end()) return false;
  for (const Version& v : it->second) {
    if (v.commit_ts <= snapshot_ts) continue;
    return v.creation;
  }
  return false;
}

uint64_t VersionStore::GarbageCollect(const ReadViewRegistry& views) {
  MutexLock lock(commit_mu_);
  return CollectLocked(views.OldestActive(last_commit_ts_));
}

uint64_t VersionStore::GarbageCollect(CommitTs oldest_snapshot) {
  MutexLock lock(commit_mu_);
  return CollectLocked(oldest_snapshot);
}

uint64_t VersionStore::CollectLocked(CommitTs oldest_snapshot) {
  gc_passes_.fetch_add(1, std::memory_order_relaxed);
  obs::TraceSpan gc_span("gc.pass", "oldest_snapshot", oldest_snapshot);
  uint64_t removed = 0;
  for (const auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    MutexLock shard_lock(shard.mu);
    for (auto it = shard.chains.begin(); it != shard.chains.end();) {
      std::vector<Version>& chain = it->second;
      // A committed version at ts C is selected only by snapshots S < C;
      // with S >= oldest_snapshot for every live ReadView, C <= oldest is
      // unreachable. Committed versions are a chain prefix (pending at the
      // tail), so this removes a prefix and order is preserved.
      auto keep = std::find_if(chain.begin(), chain.end(),
                               [oldest_snapshot](const Version& v) {
                                 return v.commit_ts > oldest_snapshot;
                               });
      removed += static_cast<uint64_t>(keep - chain.begin());
      chain.erase(chain.begin(), keep);
      if (chain.empty()) {
        it = shard.chains.erase(it);
        live_chains_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
  versions_gced_.fetch_add(removed, std::memory_order_relaxed);
  live_versions_.fetch_sub(removed, std::memory_order_relaxed);
  gc_span.SetArg2("reclaimed", removed);
  return removed;
}

VersionStoreStats VersionStore::stats() const {
  VersionStoreStats out;
  out.versions_published =
      versions_published_.load(std::memory_order_relaxed);
  out.versions_stamped = versions_stamped_.load(std::memory_order_relaxed);
  out.versions_discarded =
      versions_discarded_.load(std::memory_order_relaxed);
  out.versions_gced = versions_gced_.load(std::memory_order_relaxed);
  out.gc_passes = gc_passes_.load(std::memory_order_relaxed);
  out.snapshot_hits = snapshot_hits_.load(std::memory_order_relaxed);
  out.snapshot_current =
      snapshot_current_.load(std::memory_order_relaxed);
  out.live_versions = live_versions_.load(std::memory_order_relaxed);
  out.live_chains = live_chains_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ocb
