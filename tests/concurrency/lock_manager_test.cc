// Tests for the 2PL LockManager: S/X compatibility, FIFO waiting, S→X
// upgrade, and wait-for-graph deadlock detection (a cycle aborts exactly
// one victim — the transaction whose wait would close it), within one
// manager and, through a shared GlobalWaitGraph, across two.

#include "concurrency/lock_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace ocb {
namespace {

constexpr Oid kA = 1;
constexpr Oid kB = 2;

// Polls until the manager registers `expected` blocked waiters (the cv
// wait itself is invisible, but stats().waits counts block events).
void WaitForWaits(const LockManager& lm, uint64_t expected) {
  for (int i = 0; i < 2000; ++i) {
    if (lm.stats().waits >= expected) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "lock manager never reached " << expected << " waits";
}

TEST(LockManagerTest, SharedLocksAreCompatible) {
  LockManager lm;
  TransactionContext t1(1), t2(2);
  EXPECT_TRUE(lm.Acquire(&t1, kA, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(&t2, kA, LockMode::kShared).ok());
  EXPECT_TRUE(t1.HoldsLock(kA, LockMode::kShared));
  EXPECT_TRUE(t2.HoldsLock(kA, LockMode::kShared));
  EXPECT_EQ(lm.stats().waits, 0u);
  lm.ReleaseAll(&t1);
  lm.ReleaseAll(&t2);
  EXPECT_EQ(lm.locked_object_count(), 0u);
}

TEST(LockManagerTest, ReacquireIsIdempotent) {
  LockManager lm;
  TransactionContext t1(1);
  EXPECT_TRUE(lm.Acquire(&t1, kA, LockMode::kExclusive).ok());
  // X covers S; repeating either mode returns immediately.
  EXPECT_TRUE(lm.Acquire(&t1, kA, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(&t1, kA, LockMode::kShared).ok());
  EXPECT_EQ(t1.held_locks().size(), 1u);
  lm.ReleaseAll(&t1);
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockManager lm;
  TransactionContext writer(1), reader(2);
  ASSERT_TRUE(lm.Acquire(&writer, kA, LockMode::kExclusive).ok());

  std::atomic<bool> acquired{false};
  std::thread blocked([&]() {
    EXPECT_TRUE(lm.Acquire(&reader, kA, LockMode::kShared).ok());
    acquired = true;
  });
  WaitForWaits(lm, 1);
  EXPECT_FALSE(acquired);

  lm.ReleaseAll(&writer);
  blocked.join();
  EXPECT_TRUE(acquired);
  EXPECT_GT(reader.lock_wait_nanos(), 0u);
  lm.ReleaseAll(&reader);
}

TEST(LockManagerTest, UpgradeSucceedsWhenSoleHolder) {
  LockManager lm;
  TransactionContext t1(1);
  ASSERT_TRUE(lm.Acquire(&t1, kA, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(&t1, kA, LockMode::kExclusive).ok());
  EXPECT_TRUE(t1.HoldsLock(kA, LockMode::kExclusive));
  EXPECT_EQ(t1.held_locks().size(), 1u);
  lm.ReleaseAll(&t1);
}

TEST(LockManagerTest, UpgradeWaitsForConcurrentReader) {
  LockManager lm;
  TransactionContext upgrader(1), reader(2);
  ASSERT_TRUE(lm.Acquire(&upgrader, kA, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(&reader, kA, LockMode::kShared).ok());

  std::atomic<bool> upgraded{false};
  std::thread blocked([&]() {
    EXPECT_TRUE(lm.Acquire(&upgrader, kA, LockMode::kExclusive).ok());
    upgraded = true;
  });
  WaitForWaits(lm, 1);
  EXPECT_FALSE(upgraded);
  lm.ReleaseAll(&reader);
  blocked.join();
  EXPECT_TRUE(upgraded);
  EXPECT_TRUE(upgrader.HoldsLock(kA, LockMode::kExclusive));
  lm.ReleaseAll(&upgrader);
}

TEST(LockManagerTest, DeadlockCycleAbortsExactlyOneVictim) {
  LockManager lm;
  TransactionContext t1(1), t2(2);
  ASSERT_TRUE(lm.Acquire(&t1, kA, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(&t2, kB, LockMode::kExclusive).ok());

  // t1 blocks on B (held by t2) — no cycle yet.
  Status s1;
  std::thread blocked([&]() { s1 = lm.Acquire(&t1, kB, LockMode::kShared); });
  WaitForWaits(lm, 1);

  // t2 requesting A would close the cycle: t2 must be refused immediately
  // while the sleeping t1 stays untouched and eventually gets B.
  Status s2 = lm.Acquire(&t2, kA, LockMode::kExclusive);
  EXPECT_TRUE(s2.IsAborted()) << s2.ToString();
  EXPECT_EQ(lm.stats().deadlocks, 1u);

  lm.ReleaseAll(&t2);  // The victim aborts, releasing B.
  blocked.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();  // The survivor was never aborted.
  lm.ReleaseAll(&t1);
  EXPECT_EQ(lm.locked_object_count(), 0u);
}

TEST(LockManagerTest, UpgradeDeadlockBetweenTwoReaders) {
  // Both txns hold S on the same object and both want X: each waits for
  // the other to drop S — a classic upgrade deadlock. The second upgrade
  // request must be refused; the first proceeds once the victim releases.
  LockManager lm;
  TransactionContext t1(1), t2(2);
  ASSERT_TRUE(lm.Acquire(&t1, kA, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(&t2, kA, LockMode::kShared).ok());

  Status s1;
  std::thread blocked([&]() {
    s1 = lm.Acquire(&t1, kA, LockMode::kExclusive);
  });
  WaitForWaits(lm, 1);

  Status s2 = lm.Acquire(&t2, kA, LockMode::kExclusive);
  EXPECT_TRUE(s2.IsAborted()) << s2.ToString();

  lm.ReleaseAll(&t2);
  blocked.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_TRUE(t1.HoldsLock(kA, LockMode::kExclusive));
  lm.ReleaseAll(&t1);
}

TEST(LockManagerTest, TimeoutBackstopAborts) {
  LockManager lm(20'000'000);  // 20 ms
  TransactionContext holder(1), waiter(2);
  ASSERT_TRUE(lm.Acquire(&holder, kA, LockMode::kExclusive).ok());
  // No cycle exists (holder is running, not waiting), so only the timeout
  // can break this wait.
  Status st = lm.Acquire(&waiter, kA, LockMode::kExclusive);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  EXPECT_EQ(lm.stats().timeouts, 1u);
  lm.ReleaseAll(&holder);
  lm.ReleaseAll(&waiter);
}

// --- The cycle-closer contract --------------------------------------------
//
// The transaction whose wait would *close* a cycle is refused on the spot —
// sleepers are never woken to die, so each cycle costs exactly one victim.
// These tests pin that contract and FIFO fairness across an abort.

TEST(LockManagerTest, ThreeTxnCycleAbortsOnlyTheCycleCloser) {
  constexpr Oid kC = 3;
  LockManager lm;
  TransactionContext t1(1), t2(2), t3(3);
  ASSERT_TRUE(lm.Acquire(&t1, kA, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(&t2, kB, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(&t3, kC, LockMode::kExclusive).ok());

  // t1 → B (t2) and t2 → C (t3) wait without forming a cycle.
  Status s1, s2;
  std::thread w1([&]() { s1 = lm.Acquire(&t1, kB, LockMode::kExclusive); });
  WaitForWaits(lm, 1);
  std::thread w2([&]() { s2 = lm.Acquire(&t2, kC, LockMode::kExclusive); });
  WaitForWaits(lm, 2);

  // t3 → A closes the 3-cycle: t3 — and only t3 — is the victim.
  Status s3 = lm.Acquire(&t3, kA, LockMode::kExclusive);
  EXPECT_TRUE(s3.IsAborted()) << s3.ToString();
  EXPECT_EQ(lm.stats().deadlocks, 1u);

  // The victim's release unwinds the chain; both sleepers survive.
  lm.ReleaseAll(&t3);
  w2.join();
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  lm.ReleaseAll(&t2);
  w1.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  lm.ReleaseAll(&t1);
  EXPECT_EQ(lm.stats().deadlocks, 1u);  // Still exactly one.
  EXPECT_EQ(lm.locked_object_count(), 0u);
}

TEST(LockManagerTest, FifoOrderSurvivesVictimAbort) {
  // Two writers queue FIFO behind a holder; the holder then aborts (as a
  // deadlock victim elsewhere would). The *first* waiter must be granted
  // next — an abort must not let later waiters overtake.
  LockManager lm;
  TransactionContext holder(1), first(2), second(3);
  ASSERT_TRUE(lm.Acquire(&holder, kA, LockMode::kExclusive).ok());

  std::atomic<bool> first_granted{false};
  std::atomic<bool> second_granted{false};
  Status s_first, s_second;
  std::thread w1([&]() {
    s_first = lm.Acquire(&first, kA, LockMode::kExclusive);
    first_granted = true;
  });
  WaitForWaits(lm, 1);
  std::thread w2([&]() {
    s_second = lm.Acquire(&second, kA, LockMode::kExclusive);
    second_granted = true;
  });
  WaitForWaits(lm, 2);

  lm.ReleaseAll(&holder);  // The "victim" aborts.
  w1.join();
  EXPECT_TRUE(s_first.ok()) << s_first.ToString();
  EXPECT_TRUE(first.HoldsLock(kA, LockMode::kExclusive));
  // The later waiter is still queued behind the new holder.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(second_granted);

  lm.ReleaseAll(&first);
  w2.join();
  EXPECT_TRUE(s_second.ok()) << s_second.ToString();
  lm.ReleaseAll(&second);
  EXPECT_EQ(lm.stats().deadlocks, 0u);  // Pure FIFO run, no cycles.
  EXPECT_EQ(lm.locked_object_count(), 0u);
}

TEST(LockManagerTest, FifoPreventsWriterStarvation) {
  LockManager lm;
  TransactionContext r1(1), writer(2), r2(3);
  ASSERT_TRUE(lm.Acquire(&r1, kA, LockMode::kShared).ok());

  Status writer_status;
  std::thread blocked_writer([&]() {
    writer_status = lm.Acquire(&writer, kA, LockMode::kExclusive);
  });
  WaitForWaits(lm, 1);

  // A later reader must queue behind the waiting writer, not overtake it.
  Status r2_status;
  std::thread blocked_reader([&]() {
    r2_status = lm.Acquire(&r2, kA, LockMode::kShared);
  });
  WaitForWaits(lm, 2);

  lm.ReleaseAll(&r1);
  blocked_writer.join();
  EXPECT_TRUE(writer_status.ok());
  EXPECT_TRUE(writer.HoldsLock(kA, LockMode::kExclusive));

  lm.ReleaseAll(&writer);
  blocked_reader.join();
  EXPECT_TRUE(r2_status.ok());
  lm.ReleaseAll(&r2);
}

// --- GlobalWaitGraph: cycles across lock managers --------------------------
//
// Two managers stand in for two shards. A transaction's contexts in both
// share its id, as a ShardedDatabase's do, so the graph sees one node per
// transaction. Whichever way a registered wait ends, its edges must go.

TEST(GlobalWaitGraphTest, CrossManagerCycleIsRefusedAndTheSurvivorGranted) {
  GlobalWaitGraph graph;
  LockManager lm0, lm1;
  lm0.SetWaitGraph(&graph);
  lm1.SetWaitGraph(&graph);
  TransactionContext t1_in0(1), t1_in1(1), t2_in0(2), t2_in1(2);
  ASSERT_TRUE(lm0.Acquire(&t1_in0, kA, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm1.Acquire(&t2_in1, kB, LockMode::kExclusive).ok());

  // t1 → B (t2) in manager 1: registered, no cycle yet.
  Status s1;
  std::thread blocked([&]() {
    s1 = lm1.Acquire(&t1_in1, kB, LockMode::kExclusive);
  });
  WaitForWaits(lm1, 1);
  EXPECT_EQ(graph.waiter_count(), 1u);

  // t2 → A (t1) in manager 0 closes the cycle across the managers, which
  // manager 0's own DFS cannot see: refused at once, not timed out.
  Status s2 = lm0.Acquire(&t2_in0, kA, LockMode::kExclusive);
  EXPECT_TRUE(s2.IsAborted()) << s2.ToString();
  EXPECT_EQ(lm0.stats().deadlocks, 1u);
  EXPECT_EQ(lm0.stats().timeouts, 0u);
  EXPECT_EQ(graph.waiter_count(), 1u);  // The refused wait left no edges.

  // The victim aborts; t1's registered wait ends granted.
  lm0.ReleaseAll(&t2_in0);
  lm1.ReleaseAll(&t2_in1);
  blocked.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(graph.waiter_count(), 0u);
  EXPECT_EQ(lm1.stats().deadlocks + lm1.stats().timeouts, 0u);
  lm0.ReleaseAll(&t1_in0);
  lm1.ReleaseAll(&t1_in1);
}

TEST(GlobalWaitGraphTest, TimedOutWaitLeavesNoStaleEdge) {
  GlobalWaitGraph graph;
  LockManager lm0(20'000'000), lm1(20'000'000);  // 20 ms
  lm0.SetWaitGraph(&graph);
  lm1.SetWaitGraph(&graph);
  TransactionContext t1_in0(1), t1_in1(1), t2_in0(2), t2_in1(2);
  ASSERT_TRUE(lm1.Acquire(&t1_in1, kB, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm0.Acquire(&t2_in0, kA, LockMode::kExclusive).ok());

  // t2 → B (t1) in manager 1: t1 is running, so only the timeout ends it.
  Status s2 = lm1.Acquire(&t2_in1, kB, LockMode::kExclusive);
  EXPECT_TRUE(s2.IsAborted()) << s2.ToString();
  EXPECT_EQ(lm1.stats().timeouts, 1u);
  EXPECT_EQ(graph.waiter_count(), 0u);

  // Before t2 aborts, t1 → A (t2) in manager 0. A stale t2 → t1 edge
  // would refuse this as a cycle; without it the wait is an ordinary
  // one and times out too.
  Status s1 = lm0.Acquire(&t1_in0, kA, LockMode::kExclusive);
  EXPECT_TRUE(s1.IsAborted()) << s1.ToString();
  EXPECT_EQ(lm0.stats().deadlocks, 0u);
  EXPECT_EQ(lm0.stats().timeouts, 1u);
  EXPECT_EQ(graph.waiter_count(), 0u);

  lm0.ReleaseAll(&t2_in0);
  lm1.ReleaseAll(&t1_in1);
}

}  // namespace
}  // namespace ocb
