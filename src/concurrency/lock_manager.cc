#include "concurrency/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <vector>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "util/format.h"

namespace ocb {

namespace {

bool ModesCompatible(LockMode a, LockMode b) {
  return a == LockMode::kShared && b == LockMode::kShared;
}

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

LockManager::LockManager(uint64_t wait_timeout_nanos)
    : wait_timeout_nanos_(wait_timeout_nanos) {
#ifndef OCB_OBS_DISABLED
  // Resolved here, where no lock is held. GetHistogram takes the registry
  // mutex and the registry's gauge callbacks take mu_ (via stats()), so a
  // lazy lookup from inside Acquire — which holds mu_ — would acquire the
  // two mutexes in the opposite order and risk deadlock.
  lock_wait_histo_ =
      obs::MetricsRegistry::Global().GetHistogram("lock.wait");
#endif
}

LockManager::~LockManager() = default;

bool LockManager::Conflicts(const Request& request, const Request& other) {
  if (request.txn == other.txn) return false;
  return !ModesCompatible(request.mode, other.mode);
}

void LockManager::TryGrantQueue(LockQueue* queue) {
  bool granted_any = false;
  for (auto it = queue->requests.begin(); it != queue->requests.end(); ++it) {
    if (it->granted) continue;
    bool grantable = true;
    if (it->upgrade) {
      // An upgrade is grantable only when its own S is the sole granted
      // request left on the object.
      for (const Request& r : queue->requests) {
        if (r.granted && r.txn != it->txn) {
          grantable = false;
          break;
        }
      }
    } else {
      for (const Request& r : queue->requests) {
        if (r.granted && Conflicts(*it, r)) {
          grantable = false;
          break;
        }
      }
    }
    if (!grantable) break;  // FIFO: later waiters queue behind.
    if (it->upgrade) {
      // Fold the txn's granted S into this request: it becomes the only
      // granted entry for the txn.
      for (auto g = queue->requests.begin(); g != queue->requests.end();) {
        if (g->granted && g->txn == it->txn) {
          g = queue->requests.erase(g);
        } else {
          ++g;
        }
      }
    }
    it->granted = true;
    granted_any = true;
  }
  if (granted_any) queue->cv.notify_all();
}

std::vector<TxnId> LockManager::DirectBlockers(TxnId txn, Oid oid) const {
  // Direct blockers of a txn's first non-granted request on an object:
  // every conflicting request of another txn positioned ahead of it.
  std::vector<TxnId> out;
  auto qit = table_.find(oid);
  if (qit == table_.end()) return out;
  const LockQueue& queue = *qit->second;
  // Find the txn's waiting request to know its mode and position.
  const Request* own = nullptr;
  for (const Request& r : queue.requests) {
    if (r.txn == txn && !r.granted) {
      own = &r;
      break;
    }
  }
  if (own == nullptr) return out;
  for (const Request& r : queue.requests) {
    if (&r == own) break;
    if (Conflicts(*own, r)) out.push_back(r.txn);
  }
  return out;
}

bool LockManager::CycleFrom(TxnId node, TxnId waiter, Oid waiter_oid,
                            std::unordered_set<TxnId>* visited) const {
  Oid oid = waiter_oid;
  if (node != waiter) {
    auto wit = waiting_on_.find(node);
    if (wit == waiting_on_.end()) return false;  // Running, not blocked.
    oid = wit->second;
  }
  for (TxnId blocker : DirectBlockers(node, oid)) {
    if (blocker == waiter) return true;  // Cycle closes back at the waiter.
    if (!visited->insert(blocker).second) continue;
    if (CycleFrom(blocker, waiter, waiter_oid, visited)) return true;
  }
  return false;
}

bool LockManager::WouldDeadlock(TxnId waiter, Oid oid) const {
  std::unordered_set<TxnId> visited;
  return CycleFrom(waiter, waiter, oid, &visited);
}

// TSA-exempt: the cv wait_until unlocks and relocks mu_ mid-function
// through the unique_lock, a flow the intraprocedural analysis cannot
// follow; lockdep still sees every transition.
Status LockManager::Acquire(TransactionContext* txn, Oid oid,
                            LockMode mode) OCB_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<Mutex> lock(mu_);
  if (txn->HoldsLock(oid, mode)) {
    ++stats_.acquisitions;
    return Status::OK();
  }
  auto& queue_ptr = table_[oid];
  if (queue_ptr == nullptr) queue_ptr = std::make_unique<LockQueue>();
  LockQueue* queue = queue_ptr.get();

  Request request;
  request.txn = txn->id();
  request.mode = mode;
  request.upgrade = mode == LockMode::kExclusive &&
                    txn->HoldsLock(oid, LockMode::kShared);

  std::list<Request>::iterator mine;
  if (request.upgrade) {
    // Jump the queue: upgrades sit at the head of the wait section so the
    // upgrader only drains already-granted readers.
    auto pos = std::find_if(queue->requests.begin(), queue->requests.end(),
                            [](const Request& r) { return !r.granted; });
    mine = queue->requests.insert(pos, request);
  } else {
    mine = queue->requests.insert(queue->requests.end(), request);
  }
  TryGrantQueue(queue);

  if (!mine->granted) {
    ++stats_.waits;
    // Refuse a wait that closes a cycle within this manager, then — in a
    // sharded deployment — register the direct-blocker edges in the
    // global graph, which refuses waits that close a cycle *across*
    // managers. Either way the requester is the one victim.
    bool deadlock = WouldDeadlock(txn->id(), oid);
    bool registered = false;
    if (!deadlock && wait_graph_ != nullptr) {
      registered = wait_graph_->TryRegisterWaits(
          txn->id(), DirectBlockers(txn->id(), oid));
      deadlock = !registered;
    }
    if (deadlock) {
      queue->requests.erase(mine);
      TryGrantQueue(queue);
      ++stats_.deadlocks;
      return Status::Aborted(
          Format("deadlock: txn %llu would wait cyclically for oid %llu",
                 (unsigned long long)txn->id(), (unsigned long long)oid));
    }
    waiting_on_[txn->id()] = oid;
    const auto wait_start = std::chrono::steady_clock::now();
    const auto deadline =
        wait_start + std::chrono::nanoseconds(wait_timeout_nanos_);
    bool woke = queue->cv.wait_until(lock, deadline,
                                     [&mine]() { return mine->granted; });
    const uint64_t waited = ElapsedNanos(wait_start);
    txn->lock_wait_nanos_ += waited;
    stats_.total_wait_nanos += waited;
#ifndef OCB_OBS_DISABLED
    // Second sink for the SAME measurement (registry histogram + trace
    // span) — txn->lock_wait_nanos_ stays the source that feeds
    // TransactionResult, so the two views cannot drift. The cv.wait
    // released mu_ for the duration; recording here holds it again, but
    // these are relaxed stores only.
    {
      lock_wait_histo_->Record(waited);
      auto& rec = obs::TraceRecorder::Global();
      if (rec.enabled()) {
        const uint64_t end_ns = rec.NowNanos();
        rec.RecordComplete("lock.wait",
                           end_ns >= waited ? end_ns - waited : 0, waited,
                           "txn", txn->id(), "oid", oid);
      }
    }
#endif
    waiting_on_.erase(txn->id());
    // The wait ended (either way): its snapshot of edges is obsolete.
    if (registered) wait_graph_->Clear(txn->id());
    if (!woke) {
      queue->requests.erase(mine);
      TryGrantQueue(queue);
      ++stats_.timeouts;
      return Status::Aborted(
          Format("lock wait timeout: txn %llu on oid %llu",
                 (unsigned long long)txn->id(), (unsigned long long)oid));
    }
  }
  txn->held_locks_[oid] = mode;
  ++stats_.acquisitions;
  return Status::OK();
}

void LockManager::ReleaseAll(TransactionContext* txn) {
  MutexLock lock(mu_);
  waiting_on_.erase(txn->id());
  for (const auto& [oid, mode] : txn->held_locks_) {
    (void)mode;
    auto qit = table_.find(oid);
    if (qit == table_.end()) continue;
    LockQueue* queue = qit->second.get();
    for (auto it = queue->requests.begin(); it != queue->requests.end();) {
      if (it->txn == txn->id()) {
        it = queue->requests.erase(it);
      } else {
        ++it;
      }
    }
    if (queue->requests.empty()) {
      table_.erase(qit);
    } else {
      TryGrantQueue(queue);
    }
  }
  txn->held_locks_.clear();
}

LockManagerStats LockManager::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

size_t LockManager::locked_object_count() const {
  MutexLock lock(mu_);
  return table_.size();
}

bool LockManager::IsXLockedByOther(Oid oid, TxnId self) const {
  MutexLock lock(mu_);
  auto it = table_.find(oid);
  if (it == table_.end()) return false;
  for (const Request& r : it->second->requests) {
    if (r.granted && r.mode == LockMode::kExclusive && r.txn != self) {
      return true;
    }
  }
  return false;
}

}  // namespace ocb
