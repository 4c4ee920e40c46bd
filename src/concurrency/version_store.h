/// \file version_store.h
/// \brief Multi-version store of committed object pre-images.
///
/// The version store gives snapshot readers a consistent past to read
/// while writers mutate the object store in place under strict 2PL. It
/// reuses the undo-log discipline the Database already follows: the first
/// time a transaction writes an object it records the object's committed
/// pre-image. The version store receives the same pre-image as a *pending*
/// version owned by the writing transaction:
///
///   * While the writer is in flight, the pending version shields readers
///     from the writer's dirty in-place writes (a pending version behaves
///     as if committed at time +infinity — visible to every snapshot).
///   * At commit the writer stamps all its pending versions with one fresh
///     commit timestamp drawn from the store's global counter; from then on
///     only snapshots older than that timestamp read the pre-image.
///   * At abort the pending versions are *sealed* (StampAborted): they get
///     a fresh timestamp exactly as on commit. The object store is rolled
///     back to the very same pre-image, so the sealed version states a
///     truth — "before T the state was P" — that also matches the current
///     state; it exists so a reader that raced the dirty in-place writes
///     can still recover the pre-image (see the validate step below). GC
///     reclaims it like any committed version.
///
/// Visibility rule for a snapshot pinned at S reading object o: the state
/// of o at S is the pre-image of the *earliest* version of o committed
/// after S (chains are kept in commit order, so this is the first chain
/// entry with commit_ts > S, pending counting as +infinity); if no such
/// version exists the current object-store state is already correct. A
/// version whose pre-image is "the object did not exist yet" (a creation)
/// makes the object invisible to older snapshots.
///
/// Garbage collection removes committed versions no live snapshot can
/// select: a version with commit_ts <= S_oldest (the oldest live ReadView,
/// or the current commit timestamp when none is open) is unreachable.
///
/// Thread safety and scaling: the chain table is *sharded* by oid, each
/// shard behind its own mutex, so GetVisible — the per-object-read hot
/// path of every MVCC transaction — never funnels CLIENTN readers through
/// one lock. One `commit_mu_` covers the transaction-grained operations:
/// it serializes timestamp allocation, the whole stamping loop of a
/// commit/abort, snapshot opening and the GC threshold computation
/// against each other. Holding it across the full stamping loop is what
/// keeps multi-object commits atomic for newborn snapshots: OpenSnapshot
/// cannot pin timestamp T until every version of the commit that produced
/// T is stamped, so no view ever sees half a transaction stamped and the
/// other half pending.
///
/// Since the per-page-latching refactor there is *no* facade latch making
/// a chain lookup and the object-store read it may fall through to
/// atomic. Soundness instead comes from a read-validate protocol in
/// Database::SnapshotRead built on two writer-side guarantees:
///
///   1. a writer publishes its pre-image version *before* its first
///      in-place write of the object, and
///   2. published versions are never silently dropped — commit stamps
///      them, abort seals them (StampAborted) — until GC proves no live
///      snapshot can need them.
///
/// A reader that got kUseCurrent, read the store, and re-checks the chain
/// therefore either confirms no conflicting write existed or finds the
/// version carrying the state it should have seen.

#ifndef OCB_CONCURRENCY_VERSION_STORE_H_
#define OCB_CONCURRENCY_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "concurrency/transaction_context.h"
#include "storage/types.h"
#include "util/sync.h"

namespace ocb {

class ReadViewRegistry;

/// Commit timestamp; 0 means "initial load" (visible to every snapshot).
using CommitTs = uint64_t;

/// Aggregate counters (monotonic except live_*; read via stats()).
struct VersionStoreStats {
  uint64_t versions_published = 0;  ///< Pending versions installed.
  uint64_t versions_stamped = 0;    ///< Pending versions committed.
  uint64_t versions_discarded = 0;  ///< Pending versions sealed on abort.
  uint64_t versions_gced = 0;       ///< Committed versions reclaimed.
  uint64_t gc_passes = 0;           ///< GarbageCollect invocations.
  uint64_t snapshot_hits = 0;       ///< Reads served from a version chain.
  uint64_t snapshot_current = 0;    ///< Reads that fell through to current.
  uint64_t live_versions = 0;       ///< Versions currently held.
  uint64_t live_chains = 0;         ///< Objects with at least one version.
};

/// Outcome of a snapshot lookup.
enum class VersionLookup {
  kUseCurrent,  ///< No version newer than the snapshot: read the store.
  kVersion,     ///< The out-param bytes are the state at the snapshot.
  kInvisible    ///< The object did not exist at the snapshot.
};

/// \brief Per-object chains of committed pre-images keyed by commit time.
class VersionStore {
 public:
  /// Snapshot sentinel meaning "committed latest": GetVisible at this
  /// timestamp sees every *committed* write and no in-flight one (only a
  /// pending version, stamped +infinity, is newer — and its pre-image is
  /// exactly the last committed state). The OCC read protocol reads at
  /// this point. Strictly below kPendingTs by construction.
  static constexpr CommitTs kReadLatestTs = ~CommitTs{0} - 1;

  VersionStore();

  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Installs a pending version of \p oid owned by \p txn holding the
  /// committed pre-image \p pre_image. Call exactly once per object per
  /// transaction, before the first in-place write (the caller's undo-log
  /// dedup provides the once-ness). The owner must hold the object's X
  /// lock, so at most one pending version per object exists at a time.
  void PublishPreImage(TxnId txn, Oid oid, std::vector<uint8_t> pre_image);

  /// Installs a pending *creation* version: \p oid did not exist before
  /// the owning transaction. Same contract as PublishPreImage.
  void PublishCreation(TxnId txn, Oid oid);

  /// Commits every pending version of \p txn under one freshly drawn
  /// commit timestamp, which is returned (and becomes the new latest()).
  /// Must be called before the transaction's X locks are released so the
  /// next writer of any of these objects appends behind the stamped
  /// versions.
  CommitTs StampCommitted(TxnId txn);

  /// Group-commit form of StampCommitted: commits every transaction of
  /// \p txns under ONE commit-mutex acquisition, each with its own fresh
  /// consecutive timestamp (identical per-chain outcome to calling
  /// StampCommitted once per transaction, amortizing the mutex and the
  /// snapshot-atomicity serialization across the batch). The same
  /// preconditions apply per member: all of a member's writes are
  /// applied and its X locks are still held. Returns the last (largest)
  /// timestamp drawn; 0 when \p txns is empty.
  CommitTs StampCommittedBatch(const std::vector<TxnId>& txns);

  /// StampCommitted with an *externally issued* timestamp instead of a
  /// locally drawn one — the sharded-commit entry point: the
  /// CrossShardCoordinator draws one global timestamp and stamps every
  /// participant shard's versions with it, which is what makes a
  /// cross-shard commit a single point on the global snapshot axis.
  ///
  /// Stamping invariants the caller must uphold (they are what keep each
  /// per-object chain ascending, the property GetVisible's earliest-
  /// newer-than-S scan relies on):
  ///
  ///   * \p ts comes from one monotonic source shared by *every* stamping
  ///     call on this store — never mix locally drawn and external
  ///     timestamps on the same store;
  ///   * \p ts was drawn *after* the owning transaction's writes were
  ///     applied (successive writers of an object serialize on its X
  ///     lock, so a later writer always stamps a later timestamp);
  ///   * as with StampCommitted, the call precedes lock release.
  ///
  /// latest() advances to max(latest(), ts).
  void StampCommittedAt(TxnId txn, CommitTs ts);

  /// Seals every pending version of \p txn under a fresh timestamp (abort
  /// path). The caller has rolled the object store back to the same
  /// pre-images, so current state and sealed history agree; keeping the
  /// version (instead of dropping it) is what lets a latch-free snapshot
  /// reader that raced the aborted writer's dirty writes re-check the
  /// chain and recover the correct state. Call *after* the rollback
  /// writes complete.
  void StampAborted(TxnId txn);

  /// StampAborted with an externally issued timestamp — the sharded abort
  /// path. Same invariants as StampCommittedAt.
  void StampAbortedAt(TxnId txn, CommitTs ts);

  /// Latest commit timestamp handed out; a ReadView pinned at this value
  /// sees every committed write and no in-flight one.
  CommitTs latest() const;

  /// Advances latest() to max(latest(), ts). Recovery calls this after
  /// replay so the timestamp axis resumes past every replayed commit;
  /// never call it while transactions are in flight.
  void AdvanceLatest(CommitTs ts);

  /// Pins a snapshot at the current commit timestamp and registers it in
  /// \p views, atomically with respect to StampCommitted/StampAborted and
  /// GarbageCollect (all serialize on commit_mu_) — a concurrent GC pass
  /// can never reclaim a version the newborn snapshot still needs, and a
  /// half-stamped commit is never pinned past. Returns the pinned
  /// timestamp; wrap it in a ReadView and Close it when done.
  CommitTs OpenSnapshot(ReadViewRegistry* views);

  /// Registers a view pinned at the *caller-chosen* timestamp \p ts
  /// (typically the ShardedDatabase's global snapshot point) instead of
  /// this store's own latest(). Serializes on commit_mu_ like
  /// OpenSnapshot, so the registration is atomic against stamping loops
  /// and the GC threshold computation; cross-*shard* half-commit
  /// exclusion is the coordinator's job (its commit mutex spans all
  /// shards' stamping loops). Returns \p ts.
  CommitTs OpenSnapshotAt(CommitTs ts, ReadViewRegistry* views);

  /// Resolves the state of \p oid for a snapshot pinned at \p snapshot_ts.
  /// On kVersion, \p out receives the encoded pre-image bytes. Takes only
  /// the oid's shard mutex — the reader hot path never crosses the
  /// commit-grained lock.
  ///
  /// \p revalidate marks the second lookup of the read-validate protocol
  /// (the caller already counted the read as a store fall-through): it
  /// keeps the hit/current statistics at one count per logical read,
  /// reclassifying the earlier fall-through as a chain hit when the
  /// re-check catches a racing writer.
  VersionLookup GetVisible(Oid oid, CommitTs snapshot_ts,
                           std::vector<uint8_t>* out,
                           bool revalidate = false) const;

  /// True when \p oid did not exist yet at \p snapshot_ts — its earliest
  /// version newer than the snapshot is a creation (pending counts as
  /// +infinity). Membership probe for extent filtering: unlike
  /// GetVisible it copies no bytes and touches no read statistics
  /// (membership checks are not logical reads).
  bool CreatedAfter(Oid oid, CommitTs snapshot_ts) const;

  /// Commit timestamp of the last committed write of \p oid, or 0 if the
  /// store never saw one commit. Maintained in StampOids (commit path
  /// only — aborts don't count) and **never garbage-collected**: GC
  /// reclaims pre-image chains, but the stamps OCC/SI validation
  /// compares against must outlive every open view. Takes only the oid's
  /// shard mutex. Because stamping precedes lock release, a stamp read
  /// while holding the object's X lock is final.
  CommitTs LastWriteTs(Oid oid) const;

  /// Reclaims every committed version no snapshot in \p views (nor any
  /// future one) can select; returns the number removed. The oldest-open
  /// computation happens under commit_mu_, pairing with OpenSnapshot.
  uint64_t GarbageCollect(const ReadViewRegistry& views);

  /// Lower-level form: reclaims committed versions with
  /// commit_ts <= \p oldest_snapshot. Deterministic-test hook.
  uint64_t GarbageCollect(CommitTs oldest_snapshot);

  VersionStoreStats stats() const;

 private:
  /// Sentinel commit_ts of a pending (uncommitted) version.
  static constexpr CommitTs kPendingTs = ~CommitTs{0};

  struct Version {
    CommitTs commit_ts = kPendingTs;
    TxnId owner = kInvalidTxnId;     ///< Valid while pending.
    bool creation = false;           ///< Object absent before commit_ts.
    std::vector<uint8_t> pre_image;  ///< Meaningful when !creation.
  };

  /// One chain-table shard; oid o lives in shard o % shards_.size().
  struct Shard {
    explicit Shard(size_t index) : mu(lockdep::kVersionChainClass, index) {}
    mutable Mutex mu;
    /// Chain per object, ascending commit_ts, pending (if any) at the
    /// tail.
    std::unordered_map<Oid, std::vector<Version>> chains OCB_GUARDED_BY(mu);
    /// Last committed-write stamp per object (see LastWriteTs). Never
    /// GC'd — chains come and go, these stamps persist.
    std::unordered_map<Oid, CommitTs> last_write_ts OCB_GUARDED_BY(mu);
  };

  Shard& shard_of(Oid oid) const { return *shards_[oid % shards_.size()]; }

  /// Installs one pending version (shared by both Publish forms).
  void PublishVersion(TxnId txn, Oid oid, Version version);

  /// Pops and returns \p txn's pending-oid set (leaf pending_mu_).
  std::vector<Oid> TakePending(TxnId txn);

  /// Stamps the pending tail version of every oid in \p oids with \p ts.
  /// Requires commit_mu_.
  void StampOids(TxnId txn, const std::vector<Oid>& oids, CommitTs ts,
                 bool aborted) OCB_REQUIRES(commit_mu_);

  /// Stamps every pending version of \p txn; \p aborted only picks the
  /// stats bucket. \p external_ts == 0 draws a fresh local timestamp,
  /// otherwise the given one is used and latest() advances to the max.
  /// Shared by all four commit/abort entry points.
  CommitTs StampAll(TxnId txn, bool aborted, CommitTs external_ts = 0);

  /// GC worker; requires commit_mu_ (walks the shards one by one).
  uint64_t CollectLocked(CommitTs oldest_snapshot) OCB_REQUIRES(commit_mu_);

  /// Serializes transaction-grained operations: timestamp allocation +
  /// full stamping loops, snapshot opening, GC threshold computation.
  /// Never taken by GetVisible.
  mutable Mutex commit_mu_{lockdep::kVersionStoreCommitClass};
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Objects with a pending version per transaction (stamp/discard sets);
  /// writer-only traffic.
  Mutex pending_mu_{lockdep::kVersionStorePendingClass};
  std::unordered_map<TxnId, std::vector<Oid>> pending_by_txn_
      OCB_GUARDED_BY(pending_mu_);
  CommitTs last_commit_ts_ OCB_GUARDED_BY(commit_mu_) = 0;

  // Stats: atomics so the reader hot path can count without a lock.
  mutable std::atomic<uint64_t> versions_published_{0};
  mutable std::atomic<uint64_t> versions_stamped_{0};
  mutable std::atomic<uint64_t> versions_discarded_{0};
  mutable std::atomic<uint64_t> versions_gced_{0};
  mutable std::atomic<uint64_t> gc_passes_{0};
  mutable std::atomic<uint64_t> snapshot_hits_{0};
  mutable std::atomic<uint64_t> snapshot_current_{0};
  mutable std::atomic<uint64_t> live_versions_{0};
  mutable std::atomic<uint64_t> live_chains_{0};
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_VERSION_STORE_H_
