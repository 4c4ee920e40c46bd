/// \file lockdep_test.cc
/// \brief Runtime lock-order validator tests (src/util/lockdep.h).
///
/// The suite runs in BOTH build modes and asserts the mode-specific
/// contract:
///
///   * -DOCB_LOCKDEP=ON — seeded hierarchy violations (a buffer-pool
///     stripe mutex taken before the catalog latch, descending frame
///     keys, a class-level order cycle) are reported with the lock
///     *names* of both sides, while a full correct-order descent through
///     the hierarchy passes silently.
///   * OFF (the default build) — lockdep::kEnabled is compile-time
///     false and the wrappers are byte-identical to the std types they
///     wrap: the validator is zero-cost, not merely quiet (mirrors the
///     OCB_OBS compile-out contract).
///
/// Violation scenarios each run on a FRESH thread: the validator keeps a
/// per-thread seen-edge cache (hot acquisitions skip the graph mutex),
/// so a recycled thread would skip the graph check ResetGraphForTest
/// just re-armed.

#include "util/lockdep.h"

#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/sync.h"

namespace ocb {
namespace {

using lockdep::Violation;

#if defined(OCB_LOCKDEP_ENABLED)

/// Collects violations for the current scope instead of aborting.
class ViolationCollector {
 public:
  ViolationCollector() {
    lockdep::SetFailureHandlerForTest(
        [this](const Violation& v) { violations_.push_back(v); });
  }
  ~ViolationCollector() { lockdep::SetFailureHandlerForTest(nullptr); }

  const std::vector<Violation>& violations() const { return violations_; }

 private:
  std::vector<Violation> violations_;
};

/// Runs \p fn on a fresh thread (fresh held stack + seen-edge cache).
template <typename Fn>
void OnFreshThread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

bool AnyContains(const std::vector<std::string>& names,
                 const std::string& needle) {
  for (const std::string& n : names) {
    if (n.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(LockdepTest, EnabledInThisBuild) {
  static_assert(lockdep::kEnabled,
                "suite compiled with OCB_LOCKDEP=ON but kEnabled is false");
}

TEST(LockdepTest, CorrectHierarchyDescentPasses) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    // A realistic top-down walk: lock manager -> commit stamp ->
    // read-view registry -> catalog -> two frames (ascending page ids)
    // -> stripe (a two-page operation holds the first page's latch
    // while fetching the second) -> oid table -> version chain -> WAL.
    Mutex lockmgr(lockdep::kLockManagerTableClass, 0);
    Mutex commit(lockdep::kVersionStoreCommitClass, 0);
    Mutex readview(lockdep::kReadViewRegistryClass);
    SharedMutex catalog(lockdep::kCatalogLatchClass);
    Mutex stripe(lockdep::kBufferStripeClass, 2);
    SharedMutex frame_a(lockdep::kFrameLatchClass, 10);
    SharedMutex frame_b(lockdep::kFrameLatchClass, 11);
    Mutex oidmap(lockdep::kOidTableClass, 1);
    Mutex chain(lockdep::kVersionChainClass, 3);
    Mutex wal(lockdep::kWalWriterClass);

    MutexLock l1(lockmgr);
    MutexLock l2(commit);
    MutexLock l3(readview);
    ReaderMutexLock l4(catalog);
    WriterMutexLock l5(frame_a);
    ReaderMutexLock l6(frame_b);  // Ascending page id: legal.
    MutexLock l7(stripe);
    MutexLock l8(oidmap);
    MutexLock l9(chain);
    MutexLock l10(wal);
    EXPECT_EQ(lockdep::HeldCount(), 10u);
  });
  EXPECT_TRUE(collector.violations().empty())
      << collector.violations().front().message;
}

TEST(LockdepTest, GuardsUnwindTheHeldStack) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    SharedMutex catalog(lockdep::kCatalogLatchClass);
    {
      WriterMutexLock guard(catalog);
      EXPECT_EQ(lockdep::HeldCount(), 1u);
    }
    EXPECT_EQ(lockdep::HeldCount(), 0u);
    // Releasing made room: re-acquiring the same instance is legal.
    ReaderMutexLock again(catalog);
    EXPECT_EQ(lockdep::HeldCount(), 1u);
  });
  EXPECT_TRUE(collector.violations().empty());
}

TEST(LockdepTest, StripeThenCatalogIsReportedWithBothNames) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    // The seeded inversion from the issue: a buffer-pool stripe mutex
    // (rank 130) held while taking the catalog latch (rank 100) — the
    // exact bug class the hierarchy exists to forbid.
    Mutex stripe(lockdep::kBufferStripeClass, 0);
    SharedMutex catalog(lockdep::kCatalogLatchClass);
    MutexLock hold_stripe(stripe);
    ReaderMutexLock inverted(catalog);
  });
  ASSERT_EQ(collector.violations().size(), 1u);
  const Violation& v = collector.violations().front();
  EXPECT_EQ(v.kind, "rank-inversion");
  // Both lock names, so the report alone identifies the bad edge.
  EXPECT_NE(v.acquiring.find("catalog.latch"), std::string::npos)
      << v.message;
  EXPECT_TRUE(AnyContains(v.held, "pool.stripe")) << v.message;
  // The report embeds both, plus the pointer to the rank table.
  EXPECT_NE(v.message.find("catalog.latch"), std::string::npos);
  EXPECT_NE(v.message.find("pool.stripe"), std::string::npos);
  EXPECT_NE(v.message.find("ARCHITECTURE.md"), std::string::npos);
}

TEST(LockdepTest, DescendingFrameKeysAreAKeyOrderViolation) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    // Frame latches share a rank; multi-page operations must ascend by
    // page id (the relocation-path rule).
    SharedMutex frame_hi(lockdep::kFrameLatchClass, 42);
    SharedMutex frame_lo(lockdep::kFrameLatchClass, 7);
    WriterMutexLock hold_hi(frame_hi);
    WriterMutexLock descending(frame_lo);
  });
  ASSERT_EQ(collector.violations().size(), 1u);
  const Violation& v = collector.violations().front();
  EXPECT_EQ(v.kind, "key-order");
  EXPECT_NE(v.acquiring.find("page.frame[key=7]"), std::string::npos)
      << v.message;
  EXPECT_TRUE(AnyContains(v.held, "page.frame[key=42]")) << v.message;
}

TEST(LockdepTest, SecondCatalogLatchIsReported) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    // Catalog latches carry no per-instance key: cross-shard paths take
    // shard catalogs one at a time, and holding two is the undocumented
    // ordering the validator exists to surface.
    SharedMutex catalog_a(lockdep::kCatalogLatchClass);
    SharedMutex catalog_b(lockdep::kCatalogLatchClass);
    ReaderMutexLock hold_a(catalog_a);
    ReaderMutexLock hold_b(catalog_b);
  });
  ASSERT_EQ(collector.violations().size(), 1u);
  EXPECT_EQ(collector.violations().front().kind, "key-order");
}

TEST(LockdepTest, SameInstanceReentryIsRecursion) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    Mutex wal(lockdep::kWalWriterClass);
    wal.lock();
    // Validate (and report) before the std::mutex would deadlock: the
    // check runs pre-block, so the test can recover and unlock.
    lockdep::OnAcquire(lockdep::kWalWriterClass, &wal, lockdep::kNoKey);
    lockdep::OnRelease(lockdep::kWalWriterClass, &wal);
    wal.unlock();
  });
  ASSERT_EQ(collector.violations().size(), 1u);
  EXPECT_EQ(collector.violations().front().kind, "recursion");
}

TEST(LockdepTest, OrderCycleReportsBothStacks) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  // Thread 1 records the legal class-level edge catalog -> observer.
  OnFreshThread([] {
    SharedMutex catalog(lockdep::kCatalogLatchClass);
    Mutex observer(lockdep::kObserverClass);
    ReaderMutexLock a(catalog);
    MutexLock b(observer);
  });
  ASSERT_TRUE(collector.violations().empty());
  // Thread 2 tries the opposite order: the rank check fires first, and
  // the order graph *additionally* closes the cycle — its report names
  // the first thread's stack, the "other stack trace" of a lockdep
  // report.
  OnFreshThread([] {
    SharedMutex catalog(lockdep::kCatalogLatchClass);
    Mutex observer(lockdep::kObserverClass);
    MutexLock b(observer);
    ReaderMutexLock a(catalog);
  });
  ASSERT_EQ(collector.violations().size(), 2u);
  EXPECT_EQ(collector.violations()[0].kind, "rank-inversion");
  const Violation& cycle = collector.violations()[1];
  EXPECT_EQ(cycle.kind, "order-cycle");
  EXPECT_NE(cycle.acquiring.find("catalog.latch"), std::string::npos);
  EXPECT_TRUE(AnyContains(cycle.held, "db.observer")) << cycle.message;
  ASSERT_FALSE(cycle.prior_order.empty());
  EXPECT_TRUE(AnyContains(cycle.prior_order, "catalog.latch"))
      << cycle.message;
  EXPECT_NE(cycle.message.find("opposite order first observed"),
            std::string::npos);
  lockdep::ResetGraphForTest();  // Drop the seeded bad edge.
}

TEST(LockdepTest, TryLockIsExemptFromOrderingChecks) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    // Eviction try-locks victim frames in LRU order, not page order, so
    // a successful try-lock must never be flagged: it did not block, so
    // it cannot have deadlocked.
    Mutex stripe(lockdep::kBufferStripeClass, 0);
    SharedMutex catalog(lockdep::kCatalogLatchClass);
    MutexLock hold_stripe(stripe);
    ASSERT_TRUE(catalog.try_lock());  // Inverted rank, but try-locked.
    EXPECT_EQ(lockdep::HeldCount(), 2u);
    catalog.unlock();
  });
  EXPECT_TRUE(collector.violations().empty())
      << collector.violations().front().message;
}

TEST(LockdepTest, SetLockdepKeyRebindsAHeldLatch) {
  lockdep::ResetGraphForTest();
  ViolationCollector collector;
  OnFreshThread([] {
    // The frame-install protocol: a victim frame still keyed by its old
    // resident (page 99) is re-keyed to the new page (1) under its own
    // exclusive hold; subsequent ascending acquisitions must be judged
    // against the NEW key.
    SharedMutex frame(lockdep::kFrameLatchClass, 99);
    SharedMutex next(lockdep::kFrameLatchClass, 2);
    WriterMutexLock install(frame);
    frame.SetLockdepKey(1);
    WriterMutexLock ascending(next);  // 2 > 1: legal after the rebind.
  });
  EXPECT_TRUE(collector.violations().empty())
      << collector.violations().front().message;
}

#else  // !OCB_LOCKDEP_ENABLED — the zero-cost contract.

TEST(LockdepTest, CompiledOutInThisBuild) {
  static_assert(!lockdep::kEnabled,
                "default build must not compile the validator in");
  // Zero cost means zero *size*: the lockdep base is empty, so the
  // wrappers are byte-identical to the std types they wrap.
  static_assert(sizeof(Mutex) == sizeof(std::mutex),
                "Mutex must add no state when lockdep is off");
  static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
                "SharedMutex must add no state when lockdep is off");
}

TEST(LockdepTest, HooksAreInertNoOps) {
  // The seeded inversion from the ON-mode suite: with the validator
  // compiled out it must be silent (no handler, no bookkeeping).
  Mutex stripe(lockdep::kBufferStripeClass, 0);
  SharedMutex catalog(lockdep::kCatalogLatchClass);
  MutexLock hold_stripe(stripe);
  ReaderMutexLock inverted(catalog);
  EXPECT_EQ(lockdep::HeldCount(), 0u);  // Nothing is tracked.
}

#endif  // OCB_LOCKDEP_ENABLED

}  // namespace
}  // namespace ocb
