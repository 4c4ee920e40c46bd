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
/// The table is split into kStripeCount stripes, each on its own cache
/// lines with its own mutex, queue table, wait records, statistics and
/// free lists. An object's stripe is a multiplicative hash of its oid: a
/// shard's oids all share one residue, so `oid % kStripeCount` would leave
/// most stripes idle. Acquire and ReleaseAll hold one stripe mutex at a
/// time: ReleaseAll takes each held object's stripe in turn. Emptied
/// queues are parked through node-handle extract/insert and finished
/// requests through list::splice, so once the free lists are warm neither
/// path allocates under a mutex.
///
/// A transaction's held-lock map is read and written outside every stripe:
/// only two threads touch it, the owner and the commit leader while the
/// owner is parked in CommitPipeline::Submit. A request for a lock the
/// transaction already holds is answered from that map and takes its
/// stripe mutex only to count the grant.
///
/// A request that must wait drops its stripe, takes every stripe of its
/// manager in ascending order and checks again whether it was granted
/// meanwhile. If not, it runs the DFS over the live queues and the
/// GlobalWaitGraph registration, records its wait in its own stripe, and
/// sleeps on its queue's condition variable holding only that stripe. The
/// DFS and the record are one atomic step, so of two waits that close a
/// cycle the later one always sees the earlier. No thread ever holds the
/// stripes of two managers at once.
///
/// Cost: strict-2PL readers S-lock every object a traversal crosses, so
/// on `ocb-rw-2pl` every client calls Acquire many times per transaction.
/// Behind one table mutex those calls serialized. A SIGPROF sample of
/// that workload (seed 1998, 10 s, 4 vCPUs, GCC 12.2) put 31.9% of client
/// CPU under Acquire and 10.4% under ReleaseAll with one mutex; with the
/// stripes the run completed 1.8× the transactions and the shares fell
/// to 15.4% and 6.8%. CHANGES.md lists the benchmark runs.

#ifndef OCB_CONCURRENCY_LOCK_MANAGER_H_
#define OCB_CONCURRENCY_LOCK_MANAGER_H_

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <utility>
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

  /// The stripes' counters, summed.
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
  /// Stripes per manager (a power of two: the hash keeps the top bits).
  static constexpr unsigned kStripeBits = 4;
  static constexpr size_t kStripeCount = size_t{1} << kStripeBits;

  struct Request {
    TxnId txn = kInvalidTxnId;
    LockMode mode = LockMode::kShared;
    bool granted = false;
    bool upgrade = false;  ///< X request of a txn that holds S.
  };
  using RequestList = std::list<Request>;
  struct LockQueue {
    RequestList requests;  ///< Granted block, then FIFO waiters.
    /// _any: waits relock through ocb::Mutex's Lockable interface so the
    /// lockdep held-stack stays accurate across the sleep.
    std::condition_variable_any cv;
  };
  using QueueTable = std::unordered_map<Oid, LockQueue>;

  /// One share of the table, on cache lines of its own so that clients
  /// locking objects of different stripes never write the same line.
  struct alignas(64) Stripe {
    explicit Stripe(size_t index)
        : mu(lockdep::kLockManagerTableClass, index) {}

    mutable Mutex mu;
    QueueTable queues OCB_GUARDED_BY(mu);
    /// (waiter, oid) of every sleeping request of this stripe's objects.
    /// Written under this mutex while every stripe is held, erased under
    /// this mutex alone; the DFS reads it with every stripe held.
    std::vector<std::pair<TxnId, Oid>> waits OCB_GUARDED_BY(mu);
    LockManagerStats stats OCB_GUARDED_BY(mu);
    /// Emptied queues (with their condition variables) and finished
    /// requests, reused by the next queue and request of this stripe.
    std::vector<QueueTable::node_type> spare_queues OCB_GUARDED_BY(mu);
    RequestList spare_requests OCB_GUARDED_BY(mu);
  };

  static size_t StripeIndex(Oid oid) {
    return static_cast<size_t>((oid * 0x9E3779B97F4A7C15ull) >>
                               (64 - kStripeBits));
  }
  Stripe& stripe_of(Oid oid) { return stripes_[StripeIndex(oid)]; }
  const Stripe& stripe_of(Oid oid) const {
    return stripes_[StripeIndex(oid)];
  }

  /// The stripes, built in place with their indices as lockdep keys.
  template <size_t... I>
  static std::array<Stripe, kStripeCount> MakeStripes(
      std::index_sequence<I...>) {
    return {Stripe(I)...};
  }

  /// \p oid's queue, taken from the free list or created when it has none.
  LockQueue& QueueFor(Stripe& stripe, Oid oid) OCB_REQUIRES(stripe.mu);

  /// Links \p request into \p queue before \p pos, reusing a parked node.
  RequestList::iterator Enqueue(Stripe& stripe, LockQueue& queue,
                                RequestList::iterator pos,
                                const Request& request)
      OCB_REQUIRES(stripe.mu);

  /// Parks \p request (a waiter giving up), then settles its queue.
  void Dequeue(Stripe& stripe, Oid oid, RequestList::iterator request)
      OCB_REQUIRES(stripe.mu);

  /// After requests left \p queue: parks the queue when none is left (no
  /// request, so no sleeper on its cv) and grants what the removal
  /// allows otherwise.
  void Settle(Stripe& stripe, QueueTable::iterator queue)
      OCB_REQUIRES(stripe.mu);

  /// Grants every waiter the FIFO policy allows; notifies when any grant
  /// happened. Folded S requests of an upgrader are parked in \p stripe.
  void TryGrantQueue(Stripe& stripe, LockQueue& queue)
      OCB_REQUIRES(stripe.mu);

  /// The slow path of Acquire for a request left waiting: entered and left
  /// with no stripe held (see the file comment for the protocol).
  Status AwaitGrant(TransactionContext* txn, Oid oid, Stripe& stripe,
                    LockQueue& queue, RequestList::iterator mine);

  /// Take and drop every stripe mutex, in ascending stripe order.
  void LockAllStripes() const;
  void UnlockAllStripes() const;

  /// True when \p request conflicts with \p other (other txn, incompatible
  /// modes; an upgrader never conflicts with its own S).
  static bool Conflicts(const Request& request, const Request& other);

  // The deadlock check below reads every stripe: each requires all
  // stripe mutexes (LockAllStripes).

  /// DFS over the wait-for graph: does blocking \p waiter on \p oid close
  /// a cycle?
  bool WouldDeadlock(TxnId waiter, Oid oid) const;

  /// DFS worker of WouldDeadlock: can \p node reach \p waiter?
  bool CycleFrom(TxnId node, TxnId waiter, Oid waiter_oid,
                 std::unordered_set<TxnId>* visited) const;

  /// Direct blockers of \p txn's waiting request on \p oid: every
  /// conflicting request of another txn ahead of it.
  std::vector<TxnId> DirectBlockers(TxnId txn, Oid oid) const;

  /// Held inline: the manager is one allocation with its owner.
  std::array<Stripe, kStripeCount> stripes_;
  /// "lock.wait" registry histogram, resolved in the constructor — never
  /// under a stripe mutex: the registry's gauge callbacks take the stripe
  /// mutexes via stats(), so a lazy lookup from Acquire would invert the
  /// two mutex orders.
  obs::LatencyHistogram* lock_wait_histo_ = nullptr;
  const uint64_t wait_timeout_nanos_;  ///< Bound on one blocking Acquire.
  GlobalWaitGraph* wait_graph_ = nullptr;  ///< Optional (sharded mode).
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_LOCK_MANAGER_H_
