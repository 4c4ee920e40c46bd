/// \file wait_graph.h
/// \brief Cross-lock-manager wait-for graph for sharded deployments.
///
/// Each LockManager detects deadlocks with a DFS over its *own* queues,
/// which is complete for a single store but blind to cycles that span
/// shards: txn A blocked in shard 0's manager waiting for B, while B is
/// blocked in shard 1's manager waiting for A. Before the global graph,
/// such cycles could only be broken by the wait timeout — hundreds of
/// milliseconds of dead wait per occurrence, which the SHARDN bench
/// showed dominating the write-heavy mix.
///
/// The GlobalWaitGraph closes that gap: every shard's lock manager,
/// right before blocking a transaction, registers the edges
/// waiter → {direct blockers} here and asks whether they close a cycle
/// anywhere in the deployment. Registration and cycle check are one
/// atomic step under the graph mutex, and the victim is chosen as in the
/// per-shard DFS: the edge-adding *newcomer* is refused (Aborted), so
/// each cycle aborts exactly one transaction.
///
/// Identity: edges are keyed by TxnId, so all participant contexts of one
/// sharded transaction must share one globally unique id
/// (Database::BeginTxnWithId) — otherwise shard 0's half of a transaction
/// and shard 1's half would look like two unrelated transactions and the
/// cycle through them would go unseen.
///
/// Precision: edges are a snapshot taken when the waiter blocks and are
/// removed when it wakes. A blocker that releases mid-wait leaves a stale
/// edge behind until then, so the check may abort a transaction whose
/// cycle had just dissolved — a conservative false positive, never a
/// missed deadlock *among registered edges*. FIFO-gating waits (queued
/// behind a compatible waiter) are not registered, mirroring the
/// per-shard DFS's edge definition; the wait timeout still backstops
/// those.
///
/// Ordering: the graph mutex is a leaf below every lock-manager mutex
/// (managers call in while holding their table mutex); the graph never
/// calls out.

#ifndef OCB_CONCURRENCY_WAIT_GRAPH_H_
#define OCB_CONCURRENCY_WAIT_GRAPH_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "concurrency/transaction_context.h"
#include "util/sync.h"

namespace ocb {

/// \brief Deployment-wide txn → txn wait edges with cycle refusal.
class GlobalWaitGraph {
 public:
  GlobalWaitGraph() = default;

  GlobalWaitGraph(const GlobalWaitGraph&) = delete;
  GlobalWaitGraph& operator=(const GlobalWaitGraph&) = delete;

  /// Atomically checks whether the edges \p waiter → each of \p blockers
  /// would close a cycle with the edges already registered; if so,
  /// registers nothing and returns false (the caller must refuse the
  /// wait). Otherwise registers them and returns true — pair with
  /// Clear(waiter) once the wait ends, however it ends.
  bool TryRegisterWaits(TxnId waiter, const std::vector<TxnId>& blockers) {
    MutexLock lock(mu_);
    // DFS from every blocker: reaching `waiter` means the new edges close
    // a cycle.
    std::unordered_set<TxnId> visited;
    std::vector<TxnId> stack(blockers.begin(), blockers.end());
    while (!stack.empty()) {
      const TxnId current = stack.back();
      stack.pop_back();
      if (current == waiter) return false;
      if (!visited.insert(current).second) continue;
      auto it = out_.find(current);
      if (it == out_.end()) continue;
      stack.insert(stack.end(), it->second.begin(), it->second.end());
    }
    if (!blockers.empty()) out_[waiter] = blockers;
    return true;
  }

  /// Drops \p waiter's out-edges (it stopped waiting: granted, refused,
  /// or timed out).
  void Clear(TxnId waiter) {
    MutexLock lock(mu_);
    out_.erase(waiter);
  }

  /// Number of currently registered waiters (tests).
  size_t waiter_count() const {
    MutexLock lock(mu_);
    return out_.size();
  }

 private:
  mutable Mutex mu_{lockdep::kWaitGraphClass};
  std::unordered_map<TxnId, std::vector<TxnId>> out_ OCB_GUARDED_BY(mu_);
};

}  // namespace ocb

#endif  // OCB_CONCURRENCY_WAIT_GRAPH_H_
