/// \file transaction_context.h
/// \brief Per-transaction concurrency-control state.
///
/// A TransactionContext is handed out by Database::BeginTxn and threaded
/// through every object operation executed on the transaction's behalf. It
/// carries:
///
///   * the transaction id (monotonic; the key of the lock manager's and the
///     GlobalWaitGraph's wait-for edges),
///   * the set of object locks currently held (maintained by LockManager),
///   * an undo log of pre-images (maintained by Database) replayed in
///     reverse on abort,
///   * for *read-only* transactions, the MVCC ReadView pinning the commit
///     timestamp their snapshot reads resolve against (no locks, no undo),
///   * accounting: cumulative lock-wait time and snapshot reads served.
///
/// Lifecycle: kActive → (CommitTxn → kCommitted | AbortTxn → kAborted).
/// A context is single-threaded — exactly one client thread drives it — so
/// its members need no internal synchronization beyond what LockManager and
/// Database provide for their own structures.

#ifndef OCB_CONCURRENCY_TRANSACTION_CONTEXT_H_
#define OCB_CONCURRENCY_TRANSACTION_CONTEXT_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "oodb/schema.h"  // ClassId (for extent maintenance on rollback).
#include "storage/types.h"

namespace ocb {

/// Monotonic transaction identifier (1-based; 0 is reserved/invalid).
using TxnId = uint64_t;
inline constexpr TxnId kInvalidTxnId = 0;

/// Lock strength requested on one object.
enum class LockMode : uint8_t {
  kShared = 0,    ///< Concurrent readers allowed.
  kExclusive = 1  ///< Single writer, no readers.
};

const char* LockModeToString(LockMode mode);

/// How a transaction runs: one value picks both whether it may write and
/// its concurrency-control scheme (see ARCHITECTURE.md "Concurrency
/// control algorithms"), so no invalid combination can be requested.
enum class TxnMode : uint8_t {
  /// MVCC snapshot reader: a ReadView is pinned at begin, reads resolve
  /// through the version store without locks (never block, never
  /// deadlock), and every write is refused with InvalidArgument.
  kSnapshotRead = 0,
  /// Strict two-phase locking: S locks on reads, X locks on writes,
  /// in-place writes with undo logging. The default.
  k2PL,
  /// Snapshot isolation: reads resolve against a ReadView pinned at
  /// begin, writes are buffered in the transaction context, and commit
  /// validates first-committer-wins against version-store commit
  /// timestamps — a concurrent commit to any written object since the
  /// snapshot aborts this transaction with Status::WriteConflict.
  /// Admits write skew (disjoint write sets, intersecting read sets).
  kSI,
  /// Silo-style optimistic CC: no S locks ever. Reads record per-object
  /// version stamps; commit X-locks the write set in ascending oid
  /// order, validates that every read stamp is unchanged (and no other
  /// writer holds the object), then stamps through the ordinary commit
  /// pipeline. Serializable: conflicts surface as Status::WriteConflict.
  kOCC,
};

const char* TxnModeToString(TxnMode mode);

/// Transaction lifecycle state. kPrepared is the two-phase-commit limbo a
/// cross-shard participant enters between Database::PrepareTxn and the
/// coordinator's decision: all writes are applied, all locks are held, and
/// the only legal transitions are CommitTxnAt / AbortTxn(At).
enum class TxnState : uint8_t { kActive, kPrepared, kCommitted, kAborted };

const char* TxnStateToString(TxnState state);

/// One entry of the undo log: enough to restore the object's earliest
/// within-transaction state.
struct UndoRecord {
  enum class Kind : uint8_t {
    kCreate,  ///< Object was created by this txn: undo deletes it.
    kRestore  ///< Object pre-existed: undo restores \c pre_image (re-
              ///< inserting the record if the txn later deleted it).
  };
  Kind kind = Kind::kRestore;
  Oid oid = kInvalidOid;
  ClassId class_id = kNullClass;        ///< For extent maintenance.
  std::vector<uint8_t> pre_image;       ///< Encoded bytes (kRestore only).
};

/// One write buffered by an SI/OCC transaction: the encoded post-image,
/// applied under the X lock acquired at commit-time finalization.
struct BufferedWrite {
  ClassId class_id = kNullClass;
  std::vector<uint8_t> encoded;
};

/// \brief State of one in-flight transaction.
class TransactionContext {
 public:
  explicit TransactionContext(TxnId id, TxnMode mode = TxnMode::k2PL)
      : id_(id), mode_(mode) {}

  TransactionContext(const TransactionContext&) = delete;
  TransactionContext& operator=(const TransactionContext&) = delete;

  TxnId id() const { return id_; }
  TxnState state() const { return state_; }
  bool active() const { return state_ == TxnState::kActive; }
  bool prepared() const { return state_ == TxnState::kPrepared; }

  /// True for MVCC readers: object reads resolve against the snapshot
  /// pinned at BeginTxn (no S locks taken, so this txn never deadlocks),
  /// and every write operation is refused with InvalidArgument.
  bool read_only() const { return mode_ == TxnMode::kSnapshotRead; }

  /// The mode this transaction was begun with.
  TxnMode mode() const { return mode_; }

  /// True for the lock-free writer modes (SI, OCC): reads take no S
  /// locks and writes are buffered until commit-time finalization.
  bool optimistic() const {
    return mode_ == TxnMode::kSI || mode_ == TxnMode::kOCC;
  }

  /// True when object reads resolve through a pinned ReadView: MVCC
  /// readers, and SI writers (whose reads come from their snapshot).
  bool uses_snapshot_reads() const {
    return mode_ == TxnMode::kSnapshotRead || mode_ == TxnMode::kSI;
  }

  /// True when this transaction has work to commit: in-place undo-logged
  /// writes (2PL, or finalized SI/OCC) or still-buffered SI/OCC writes.
  /// The writer-classification predicate everywhere `!undo_log().empty()`
  /// used to be the test.
  bool has_writes() const {
    return !undo_log_.empty() || !write_buffer_.empty();
  }

  /// Buffered SI/OCC writes (oid → post-image), ascending oid order —
  /// commit-time finalization X-locks them in this order.
  const std::map<Oid, BufferedWrite>& write_buffer() const {
    return write_buffer_;
  }

  /// OCC read set: oid → last-committed-write timestamp observed at read
  /// time. Commit validation re-reads each stamp and aborts on change.
  const std::unordered_map<Oid, uint64_t>& occ_read_set() const {
    return occ_read_set_;
  }

  /// Commit timestamp the snapshot is pinned at (read-only txns only).
  uint64_t snapshot_ts() const { return snapshot_ts_; }

  /// Object reads this txn served through its ReadView (version chain or
  /// store fall-through).
  uint64_t snapshot_reads() const { return snapshot_reads_; }

  /// True when this txn holds a lock on \p oid at least as strong as
  /// \p mode.
  bool HoldsLock(Oid oid, LockMode mode) const {
    auto it = held_locks_.find(oid);
    if (it == held_locks_.end()) return false;
    return mode == LockMode::kShared || it->second == LockMode::kExclusive;
  }

  /// Locks currently held (oid → strongest granted mode).
  const std::unordered_map<Oid, LockMode>& held_locks() const {
    return held_locks_;
  }

  /// Undo log in append order; Database replays it in reverse on abort.
  const std::vector<UndoRecord>& undo_log() const { return undo_log_; }

  /// Cumulative wall time this txn spent blocked on locks.
  uint64_t lock_wait_nanos() const { return lock_wait_nanos_; }

 private:
  friend class LockManager;  ///< Maintains held_locks_, lock_wait_nanos_.
  friend class Database;     ///< Maintains undo_log_, state_, CC state.

  TxnId id_;
  TxnMode mode_;
  TxnState state_ = TxnState::kActive;
  std::unordered_map<Oid, LockMode> held_locks_;
  std::vector<UndoRecord> undo_log_;
  std::unordered_set<Oid> undo_logged_;  ///< Oids with a pre-image already.
  uint64_t lock_wait_nanos_ = 0;
  uint64_t snapshot_ts_ = 0;     ///< Pinned ReadView ts (see owns_view_).
  uint64_t snapshot_reads_ = 0;  ///< Reads served through the ReadView.
  /// True when this context owns an open ReadView that commit/abort must
  /// close: MVCC readers AND SI writers (whose snapshot_ts_ pins their
  /// read snapshot). Cleared once the view is closed.
  bool owns_view_ = false;
  /// SI/OCC: writes buffered until commit-time finalization (applied
  /// in-place only after validation, under X locks).
  std::map<Oid, BufferedWrite> write_buffer_;
  /// SI/OCC: set once Database::FinalizeCc validated and applied the
  /// buffered writes — the commit paths that follow (pipeline, 2PC
  /// CommitTxnAt) must not finalize twice.
  bool cc_finalized_ = false;
  /// OCC: per-object version stamps observed by reads (see occ_read_set).
  std::unordered_map<Oid, uint64_t> occ_read_set_;
  /// OCC phantom protection: per-class extent version counters observed
  /// by ExtentSnapshot, revalidated at commit.
  std::unordered_map<ClassId, uint64_t> occ_extent_versions_;
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_TRANSACTION_CONTEXT_H_
