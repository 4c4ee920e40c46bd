/// \file lock_manager.h
/// \brief Object-granularity two-phase lock manager.
///
/// The lock manager implements strict 2PL for the Database's transactional
/// path: transactions acquire shared (S) or exclusive (X) locks per object
/// as they touch it and hold everything until commit or abort, when
/// ReleaseAll drains the lot at once.
///
/// Grant policy is FIFO per object: a request is granted when it is
/// compatible with every granted request of other transactions *and* no
/// earlier waiter is still queued ahead of it (no writer starvation). The
/// one queue-jump is the S→X upgrade, which is placed at the head of the
/// wait section so the upgrader drains concurrent readers as fast as
/// possible.
///
/// Deadlock handling: when a request must wait, the manager builds the
/// wait-for graph implied by the queues and runs a DFS from the requester.
/// If the wait would close a cycle, the requester is refused with
/// Status::Aborted on the spot: each cycle aborts exactly one transaction,
/// and everyone already asleep stays asleep. In a sharded deployment the
/// same rule is applied across managers by the GlobalWaitGraph
/// (wait_graph.h). A wait timeout (the constructor argument) backstops
/// waits neither check can see.
///
/// All blocking happens inside Acquire on a per-object condition variable;
/// the table itself is protected by one mutex (critical sections are a few
/// map operations — contention on it is far cheaper than the storage work
/// done while holding the locks it hands out).

#ifndef OCB_CONCURRENCY_LOCK_MANAGER_H_
#define OCB_CONCURRENCY_LOCK_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "concurrency/transaction_context.h"
#include "concurrency/wait_graph.h"
#include "storage/types.h"
#include "util/status.h"
#include "util/sync.h"

namespace ocb {

namespace obs {
class LatencyHistogram;
}  // namespace obs

/// Aggregate counters (monotonic; read via stats()).
struct LockManagerStats {
  uint64_t acquisitions = 0;     ///< Granted requests (incl. re-grants).
  uint64_t waits = 0;            ///< Requests that had to block.
  uint64_t deadlocks = 0;        ///< Requests refused by cycle detection.
  uint64_t timeouts = 0;         ///< Requests refused by the timeout.
  uint64_t total_wait_nanos = 0; ///< Wall time spent blocked, all txns.
};

/// \brief Shared/exclusive object lock table with deadlock detection.
class LockManager {
 public:
  /// \p wait_timeout_nanos bounds one blocking Acquire (default 2 s);
  /// expiring returns Aborted. It is the fallback for conflicts the
  /// wait-for graph cannot express.
  explicit LockManager(uint64_t wait_timeout_nanos = 2'000'000'000);
  ~LockManager();

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires \p mode on \p oid for \p txn, blocking while conflicting
  /// transactions hold the object. Idempotent: re-requesting a held (or
  /// weaker) mode returns immediately. S→X upgrades are supported.
  ///
  /// \return OK when granted; Aborted when the wait would deadlock or
  ///         timed out — the caller must abort the transaction (its
  ///         already-granted locks stay held until ReleaseAll).
  Status Acquire(TransactionContext* txn, Oid oid, LockMode mode);

  /// Releases every lock \p txn holds and wakes eligible waiters.
  /// Called exactly once, at commit or abort (strict 2PL).
  void ReleaseAll(TransactionContext* txn);

  LockManagerStats stats() const;

  /// Number of objects with at least one granted or waiting request.
  size_t locked_object_count() const;

  /// True when a transaction other than \p self currently holds the X
  /// lock on \p oid. Silo's locked-tuple rule: OCC validation treats an
  /// object X-locked by a concurrently committing writer as a conflict
  /// even though its stamp has not changed yet — without it two
  /// validating transactions could mutually pass stamp-only checks.
  bool IsXLockedByOther(Oid oid, TxnId self) const;

  /// Attaches a deployment-wide wait-for graph (ShardedDatabase wires all
  /// its shards' managers to one). When set, every blocking Acquire also
  /// registers its direct-blocker edges there and refuses the wait if
  /// they close a *cross-shard* cycle — the per-shard DFS cannot see
  /// those, and before the graph they burned the full wait timeout. Set
  /// while no Acquire is in flight (construction time); pass nullptr to
  /// detach.
  void SetWaitGraph(GlobalWaitGraph* graph) { wait_graph_ = graph; }

 private:
  struct Request {
    TxnId txn = kInvalidTxnId;
    LockMode mode = LockMode::kShared;
    bool granted = false;
    bool upgrade = false;  ///< X request of a txn that holds S.
  };
  struct LockQueue {
    std::list<Request> requests;      ///< Granted block, then FIFO waiters.
    /// _any: waits relock through ocb::Mutex's Lockable interface so the
    /// lockdep held-stack stays accurate across the sleep.
    std::condition_variable_any cv;
  };

  /// Grants every waiter the FIFO policy allows; notifies when any grant
  /// happened. Requires mu_.
  void TryGrantQueue(LockQueue* queue) OCB_REQUIRES(mu_);

  /// True when \p request conflicts with \p other (other txn, incompatible
  /// modes; an upgrader never conflicts with its own S).
  static bool Conflicts(const Request& request, const Request& other);

  /// DFS over the wait-for graph: does blocking \p waiter on \p oid close
  /// a cycle? Requires mu_.
  bool WouldDeadlock(TxnId waiter, Oid oid) const OCB_REQUIRES(mu_);

  /// DFS worker of WouldDeadlock: can \p node reach \p waiter? Requires mu_.
  bool CycleFrom(TxnId node, TxnId waiter, Oid waiter_oid,
                 std::unordered_set<TxnId>* visited) const OCB_REQUIRES(mu_);

  /// Direct blockers of \p txn's waiting request on \p oid: every
  /// conflicting request of another txn ahead of it. Requires mu_.
  std::vector<TxnId> DirectBlockers(TxnId txn, Oid oid) const
      OCB_REQUIRES(mu_);

  mutable Mutex mu_{lockdep::kLockManagerTableClass};
  std::unordered_map<Oid, std::unique_ptr<LockQueue>> table_
      OCB_GUARDED_BY(mu_);
  /// "lock.wait" registry histogram, resolved in the constructor — never
  /// under mu_: the registry's gauge callbacks take mu_ via stats(), so a
  /// lazy lookup from Acquire would invert the two mutex orders.
  obs::LatencyHistogram* lock_wait_histo_ = nullptr;
  /// Blocked txn → object.
  std::unordered_map<TxnId, Oid> waiting_on_ OCB_GUARDED_BY(mu_);
  const uint64_t wait_timeout_nanos_;  ///< Bound on one blocking Acquire.
  LockManagerStats stats_ OCB_GUARDED_BY(mu_);
  GlobalWaitGraph* wait_graph_ = nullptr;  ///< Optional (sharded mode).
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_LOCK_MANAGER_H_
