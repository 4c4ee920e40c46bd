#include "concurrency/lock_manager.h"

#include <algorithm>
#include <chrono>
#include <iterator>
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
    : stripes_(MakeStripes(std::make_index_sequence<kStripeCount>())),
      wait_timeout_nanos_(wait_timeout_nanos) {
#ifndef OCB_OBS_DISABLED
  // Resolved here, where no lock is held. GetHistogram takes the registry
  // mutex and the registry's gauge callbacks take the stripe mutexes (via
  // stats()), so a lazy lookup from inside Acquire — which holds a stripe
  // mutex — would acquire the two in the opposite order and risk deadlock.
  lock_wait_histo_ =
      obs::MetricsRegistry::Global().GetHistogram("lock.wait");
#endif
}

LockManager::~LockManager() = default;

bool LockManager::Conflicts(const Request& request, const Request& other) {
  if (request.txn == other.txn) return false;
  return !ModesCompatible(request.mode, other.mode);
}

LockManager::LockQueue& LockManager::QueueFor(Stripe& stripe, Oid oid) {
  auto it = stripe.queues.find(oid);
  if (it != stripe.queues.end()) return it->second;
  if (stripe.spare_queues.empty()) {
    return stripe.queues.try_emplace(oid).first->second;
  }
  QueueTable::node_type node = std::move(stripe.spare_queues.back());
  stripe.spare_queues.pop_back();
  node.key() = oid;
  return stripe.queues.insert(std::move(node)).position->second;
}

LockManager::RequestList::iterator LockManager::Enqueue(
    Stripe& stripe, LockQueue& queue, RequestList::iterator pos,
    const Request& request) {
  if (stripe.spare_requests.empty()) {
    return queue.requests.insert(pos, request);
  }
  // splice relinks the node in place: the iterator stays valid.
  const RequestList::iterator node = stripe.spare_requests.begin();
  *node = request;
  queue.requests.splice(pos, stripe.spare_requests, node);
  return node;
}

void LockManager::Dequeue(Stripe& stripe, Oid oid,
                          RequestList::iterator request) {
  auto qit = stripe.queues.find(oid);
  stripe.spare_requests.splice(stripe.spare_requests.end(),
                               qit->second.requests, request);
  Settle(stripe, qit);
}

void LockManager::Settle(Stripe& stripe, QueueTable::iterator queue) {
  if (queue->second.requests.empty()) {
    stripe.spare_queues.push_back(stripe.queues.extract(queue));
  } else {
    TryGrantQueue(stripe, queue->second);
  }
}

void LockManager::TryGrantQueue(Stripe& stripe, LockQueue& queue) {
  RequestList& requests = queue.requests;
  bool granted_any = false;
  for (auto it = requests.begin(); it != requests.end(); ++it) {
    if (it->granted) continue;
    bool grantable = true;
    if (it->upgrade) {
      // An upgrade is grantable only when its own S is the sole granted
      // request left on the object.
      for (const Request& r : requests) {
        if (r.granted && r.txn != it->txn) {
          grantable = false;
          break;
        }
      }
    } else {
      for (const Request& r : requests) {
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
      for (auto g = requests.begin(); g != requests.end();) {
        const auto next = std::next(g);
        if (g->granted && g->txn == it->txn) {
          stripe.spare_requests.splice(stripe.spare_requests.end(), requests,
                                       g);
        }
        g = next;
      }
    }
    it->granted = true;
    granted_any = true;
  }
  if (granted_any) queue.cv.notify_all();
}

// TSA-exempt: a loop over a run-time set of capabilities, which the
// analysis cannot name.
void LockManager::LockAllStripes() const OCB_NO_THREAD_SAFETY_ANALYSIS {
  for (const Stripe& stripe : stripes_) stripe.mu.lock();
}

void LockManager::UnlockAllStripes() const OCB_NO_THREAD_SAFETY_ANALYSIS {
  for (const Stripe& stripe : stripes_) stripe.mu.unlock();
}

// TSA-exempt, as is CycleFrom below: both read any stripe and require
// all of them (LockAllStripes), a set TSA cannot name.
std::vector<TxnId> LockManager::DirectBlockers(TxnId txn, Oid oid) const
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  // Direct blockers of a txn's first non-granted request on an object:
  // every conflicting request of another txn positioned ahead of it.
  std::vector<TxnId> out;
  const Stripe& stripe = stripe_of(oid);
  auto qit = stripe.queues.find(oid);
  if (qit == stripe.queues.end()) return out;
  const RequestList& requests = qit->second.requests;
  // Find the txn's waiting request to know its mode and position.
  const Request* own = nullptr;
  for (const Request& r : requests) {
    if (r.txn == txn && !r.granted) {
      own = &r;
      break;
    }
  }
  if (own == nullptr) return out;
  for (const Request& r : requests) {
    if (&r == own) break;
    if (Conflicts(*own, r)) out.push_back(r.txn);
  }
  return out;
}

bool LockManager::CycleFrom(TxnId node, TxnId waiter, Oid waiter_oid,
                            std::unordered_set<TxnId>* visited) const
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  Oid oid = waiter_oid;
  if (node != waiter) {
    bool blocked = false;
    for (const Stripe& stripe : stripes_) {
      for (const auto& [txn, on] : stripe.waits) {
        if (txn == node) {
          oid = on;
          blocked = true;
          break;
        }
      }
      if (blocked) break;
    }
    if (!blocked) return false;  // Running, not blocked.
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

// TSA-exempt: the stripe mutex is released mid-function (before the
// slow path) through the unique_lock, a flow the intraprocedural
// analysis cannot follow; lockdep still sees every transition.
Status LockManager::Acquire(TransactionContext* txn, Oid oid,
                            LockMode mode) OCB_NO_THREAD_SAFETY_ANALYSIS {
  Stripe& stripe = stripe_of(oid);
  if (txn->HoldsLock(oid, mode)) {
    MutexLock lock(stripe.mu);
    ++stripe.stats.acquisitions;
    return Status::OK();
  }
  Request request;
  request.txn = txn->id();
  request.mode = mode;
  request.upgrade = mode == LockMode::kExclusive &&
                    txn->HoldsLock(oid, LockMode::kShared);

  std::unique_lock<Mutex> lock(stripe.mu);
  LockQueue& queue = QueueFor(stripe, oid);
  RequestList::iterator pos = queue.requests.end();
  if (request.upgrade) {
    // Jump the queue: upgrades sit at the head of the wait section so the
    // upgrader only drains already-granted readers.
    pos = std::find_if(queue.requests.begin(), queue.requests.end(),
                       [](const Request& r) { return !r.granted; });
  }
  const RequestList::iterator mine = Enqueue(stripe, queue, pos, request);
  TryGrantQueue(stripe, queue);
  if (mine->granted) {
    ++stripe.stats.acquisitions;
    lock.unlock();
  } else {
    lock.unlock();
    OCB_RETURN_NOT_OK(AwaitGrant(txn, oid, stripe, queue, mine));
  }
  // Outside the mutex: only this thread touches the map until commit.
  txn->held_locks_[oid] = mode;
  return Status::OK();
}

// TSA-exempt: holds every stripe, then sleeps on the cv of one (which
// unlocks and relocks it), flows the analysis cannot follow.
Status LockManager::AwaitGrant(TransactionContext* txn, Oid oid,
                               Stripe& stripe, LockQueue& queue,
                               RequestList::iterator mine)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  LockAllStripes();
  // A release may have granted the request while no stripe was held.
  if (mine->granted) {
    ++stripe.stats.acquisitions;
    UnlockAllStripes();
    return Status::OK();
  }
  ++stripe.stats.waits;
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
    Dequeue(stripe, oid, mine);
    ++stripe.stats.deadlocks;
    UnlockAllStripes();
    return Status::Aborted(
        Format("deadlock: txn %llu would wait cyclically for oid %llu",
               (unsigned long long)txn->id(), (unsigned long long)oid));
  }
  stripe.waits.emplace_back(txn->id(), oid);
  for (Stripe& other : stripes_) {
    if (&other != &stripe) other.mu.unlock();
  }
  std::unique_lock<Mutex> lock(stripe.mu, std::adopt_lock);
  const auto wait_start = std::chrono::steady_clock::now();
  const auto deadline =
      wait_start + std::chrono::nanoseconds(wait_timeout_nanos_);
  const bool woke = queue.cv.wait_until(lock, deadline,
                                        [&mine]() { return mine->granted; });
  const uint64_t waited = ElapsedNanos(wait_start);
  txn->lock_wait_nanos_ += waited;
  stripe.stats.total_wait_nanos += waited;
#ifndef OCB_OBS_DISABLED
  // Second sink for the SAME measurement (registry histogram + trace
  // span) — txn->lock_wait_nanos_ stays the source that feeds
  // TransactionResult, so the two views cannot drift. The cv.wait
  // released the stripe mutex for the duration; recording here holds it
  // again, but these are relaxed stores only.
  {
    lock_wait_histo_->Record(waited);
    auto& rec = obs::TraceRecorder::Global();
    if (rec.enabled()) {
      const uint64_t end_ns = rec.NowNanos();
      rec.RecordComplete("lock.wait", end_ns >= waited ? end_ns - waited : 0,
                         waited, "txn", txn->id(), "oid", oid);
    }
  }
#endif
  auto& waits = stripe.waits;
  *std::find(waits.begin(), waits.end(), std::make_pair(txn->id(), oid)) =
      waits.back();
  waits.pop_back();
  // The wait ended (either way): its snapshot of edges is obsolete.
  if (registered) wait_graph_->Clear(txn->id());
  if (!woke) {
    Dequeue(stripe, oid, mine);
    ++stripe.stats.timeouts;
    return Status::Aborted(
        Format("lock wait timeout: txn %llu on oid %llu",
               (unsigned long long)txn->id(), (unsigned long long)oid));
  }
  ++stripe.stats.acquisitions;
  return Status::OK();
}

void LockManager::ReleaseAll(TransactionContext* txn) {
  const TxnId id = txn->id();
  for (const auto& entry : txn->held_locks_) {
    Stripe& stripe = stripe_of(entry.first);
    MutexLock lock(stripe.mu);
    auto qit = stripe.queues.find(entry.first);
    if (qit == stripe.queues.end()) continue;
    RequestList& requests = qit->second.requests;
    for (auto it = requests.begin(); it != requests.end();) {
      const auto next = std::next(it);
      if (it->txn == id) {
        stripe.spare_requests.splice(stripe.spare_requests.end(), requests,
                                     it);
      }
      it = next;
    }
    Settle(stripe, qit);
  }
  txn->held_locks_.clear();
}

LockManagerStats LockManager::stats() const {
  LockManagerStats total;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    total.acquisitions += stripe.stats.acquisitions;
    total.waits += stripe.stats.waits;
    total.deadlocks += stripe.stats.deadlocks;
    total.timeouts += stripe.stats.timeouts;
    total.total_wait_nanos += stripe.stats.total_wait_nanos;
  }
  return total;
}

size_t LockManager::locked_object_count() const {
  size_t count = 0;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    count += stripe.queues.size();
  }
  return count;
}

bool LockManager::IsXLockedByOther(Oid oid, TxnId self) const {
  const Stripe& stripe = stripe_of(oid);
  MutexLock lock(stripe.mu);
  auto it = stripe.queues.find(oid);
  if (it == stripe.queues.end()) return false;
  for (const Request& r : it->second.requests) {
    if (r.granted && r.mode == LockMode::kExclusive && r.txn != self) {
      return true;
    }
  }
  return false;
}

}  // namespace ocb
