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
/// Which transaction dies is chosen by LockManagerOptions::victim_policy:
///
///   * kCycleCloser (default, the PR 2 baseline contract) — the requester
///     whose wait would close the cycle is refused with Status::Aborted,
///     so each cycle aborts exactly one transaction (everyone already
///     asleep stays asleep).
///   * kYoungest — the youngest (largest-id) transaction in the cycle is
///     the victim. When that is a sleeping waiter it is woken with
///     Status::Aborted and the requester waits on; when the requester is
///     itself the youngest it is refused as under kCycleCloser.
///   * kWoundWait — no cycle search at all: an older requester *wounds*
///     every younger conflicting blocker (sleeping ones wake Aborted,
///     running ones die at their next Acquire), a younger requester
///     simply waits behind older ones. Deadlock-free by construction,
///     at the price of aborts without a proven cycle.
///
/// A wait-die-style timeout (LockManagerOptions::wait_timeout_nanos)
/// backstops anything the policy cannot see.
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

/// Tunables of the lock manager.
struct LockManagerOptions {
  /// Upper bound on one blocking Acquire; expiring returns Aborted. The
  /// fallback for conflicts the wait-for graph cannot express.
  uint64_t wait_timeout_nanos = 2'000'000'000;  // 2 s

  /// Deadlock victim-selection policy (see DeadlockPolicy). The default
  /// preserves the PR 2 baseline contract: one victim per cycle (the
  /// cycle-closing requester), FIFO fairness across aborts.
  DeadlockPolicy victim_policy = DeadlockPolicy::kCycleCloser;
};

/// Aggregate counters (monotonic; read via stats()).
struct LockManagerStats {
  uint64_t acquisitions = 0;     ///< Granted requests (incl. re-grants).
  uint64_t waits = 0;            ///< Requests that had to block.
  uint64_t deadlocks = 0;        ///< Requests refused by cycle detection.
  uint64_t timeouts = 0;         ///< Requests refused by the timeout.
  uint64_t total_wait_nanos = 0; ///< Wall time spent blocked, all txns.
  uint64_t victim_wakeups = 0;   ///< Sleeping waiters aborted as victims.
  uint64_t wounds = 0;           ///< Wound-wait wounds dealt to younger txns.
};

/// \brief Shared/exclusive object lock table with deadlock detection.
class LockManager {
 public:
  explicit LockManager(LockManagerOptions options = LockManagerOptions());
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

  /// Current / new deadlock victim policy. The setter is safe to call at
  /// any time (it takes the table mutex) but is meant to be flipped
  /// between runs: all clients of one run share one policy
  /// (ProtocolRunner applies WorkloadParameters::deadlock_policy at
  /// construction).
  DeadlockPolicy victim_policy() const;
  void SetVictimPolicy(DeadlockPolicy policy);

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
    bool victim = false;   ///< Marked for abort (youngest / wound-wait);
                           ///< the sleeping owner wakes and returns
                           ///< Aborted instead of being granted.
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
  /// a cycle? When it does and \p cycle is non-null, the cycle's member
  /// transactions (including \p waiter) are appended to it. Requires mu_.
  bool WouldDeadlock(TxnId waiter, Oid oid, LockMode mode,
                     std::vector<TxnId>* cycle = nullptr) const
      OCB_REQUIRES(mu_);

  /// DFS worker of WouldDeadlock: can \p node reach \p waiter? \p path
  /// accumulates the nodes of the successful branch. Requires mu_.
  bool CycleFrom(TxnId node, TxnId waiter, Oid waiter_oid,
                 std::unordered_set<TxnId>* visited,
                 std::vector<TxnId>* path) const OCB_REQUIRES(mu_);

  /// Direct blockers of \p txn's waiting request on \p oid: every
  /// conflicting request of another txn ahead of it. Requires mu_.
  std::vector<TxnId> DirectBlockers(TxnId txn, Oid oid) const
      OCB_REQUIRES(mu_);

  /// Marks \p victim's *sleeping* waiting request as a deadlock victim
  /// and wakes it; its Acquire returns Aborted. Returns false when
  /// \p victim is not currently blocked in this manager. Requires mu_.
  bool MarkWaiterVictim(TxnId victim) OCB_REQUIRES(mu_);

  /// True when \p txn's current wait has been marked victim (such a
  /// wait no longer carries wait-for edges). Requires mu_.
  bool HasVictimWait(TxnId txn) const OCB_REQUIRES(mu_);

  /// Wound-wait: wounds every conflicting blocker of \p txn's request on
  /// \p oid that is *younger* (larger id). Sleeping younger blockers are
  /// woken as victims; running ones are flagged in wounded_ and die at
  /// their next Acquire. Requires mu_.
  void WoundYoungerBlockers(TxnId txn, Oid oid) OCB_REQUIRES(mu_);

  mutable Mutex mu_{lockdep::kLockManagerTableClass};
  std::unordered_map<Oid, std::unique_ptr<LockQueue>> table_
      OCB_GUARDED_BY(mu_);
  /// "lock.wait" registry histogram, resolved in the constructor — never
  /// under mu_: the registry's gauge callbacks take mu_ via stats(), so a
  /// lazy lookup from Acquire would invert the two mutex orders.
  obs::LatencyHistogram* lock_wait_histo_ = nullptr;
  /// Blocked txn → object.
  std::unordered_map<TxnId, Oid> waiting_on_ OCB_GUARDED_BY(mu_);
  /// Wound-wait: die at next Acquire.
  std::unordered_set<TxnId> wounded_ OCB_GUARDED_BY(mu_);
  LockManagerOptions options_ OCB_GUARDED_BY(mu_);
  LockManagerStats stats_ OCB_GUARDED_BY(mu_);
  GlobalWaitGraph* wait_graph_ = nullptr;  ///< Optional (sharded mode).
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_LOCK_MANAGER_H_
