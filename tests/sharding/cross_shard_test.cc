// CrossShardCoordinator tests through the Session API: the single-shard
// fast path takes no coordinator 2PC state, cross-shard transactions
// commit atomically (an abort injected between prepare and commit rolls
// every shard back), and cross-shard MVCC snapshots are consistent — a
// reader never sees shard A's half of a commit without shard B's,
// single-threaded and under a multi-threaded writer/reader stress.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "sharding/sharded_database.h"

namespace ocb {
namespace {

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 64;
  return opts;
}

Schema TwoClassSchema() {
  Schema schema;
  schema.SetRefTypes(Schema::DefaultTraits(3));
  ClassDescriptor a;
  a.id = 0;
  a.maxnref = 3;
  a.basesize = 40;
  a.instance_size = 40;
  a.tref = {2, 2, 2};
  a.cref = {1, 1, 0};
  ClassDescriptor b;
  b.id = 1;
  b.maxnref = 2;
  b.basesize = 20;
  b.instance_size = 20;
  b.tref = {2, 2};
  b.cref = {0, 0};
  Schema out = std::move(schema);
  EXPECT_TRUE(out.AddClass(std::move(a)).ok());
  EXPECT_TRUE(out.AddClass(std::move(b)).ok());
  return out;
}

class CrossShardTest : public ::testing::Test {
 protected:
  CrossShardTest() : db_(TestOptions(), 2) {
    db_.SetSchema(TwoClassSchema());
    // Round-robin creation on two shards: a_ and t1_ land on shard 0,
    // b_ and t2_ on shard 1 (oids 1..4).
    a_ = *db_.CreateObject(0);
    b_ = *db_.CreateObject(0);
    t1_ = *db_.CreateObject(1);
    t2_ = *db_.CreateObject(1);
    EXPECT_EQ(db_.router().ShardOf(a_), 0u);
    EXPECT_EQ(db_.router().ShardOf(b_), 1u);
    EXPECT_EQ(db_.router().ShardOf(t1_), 0u);
    EXPECT_EQ(db_.router().ShardOf(t2_), 1u);
  }

  ShardedSessionTransaction Begin() { return db_.OpenSession().Begin(); }
  ShardedSessionTransaction BeginReader() {
    return db_.OpenSession().Begin(TxnMode::kSnapshotRead);
  }

  ShardedDatabase db_;
  Oid a_ = kInvalidOid;
  Oid b_ = kInvalidOid;
  Oid t1_ = kInvalidOid;
  Oid t2_ = kInvalidOid;
};

TEST_F(CrossShardTest, SingleShardFastPathSkips2pc) {
  const CrossShardStats before = db_.coordinator()->stats();
  // a_ → t1_ stays entirely on shard 0.
  auto txn = Begin();
  ASSERT_TRUE(txn.SetReference(a_, 0, t1_).ok());
  EXPECT_EQ(txn.shards_touched(), 1u);
  EXPECT_FALSE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(txn.twopc_nanos(), 0u);

  const CrossShardStats after = db_.coordinator()->stats();
  EXPECT_EQ(after.fast_path_commits, before.fast_path_commits + 1);
  EXPECT_EQ(after.cross_shard_commits, before.cross_shard_commits);
  EXPECT_EQ(after.prepares, before.prepares);  // No prepare phase at all.
}

TEST_F(CrossShardTest, CrossShardCommitRunsTwoPhase) {
  const CrossShardStats before = db_.coordinator()->stats();
  // a_ (shard 0) → t2_ (shard 1): writes land on both shards.
  auto txn = Begin();
  ASSERT_TRUE(txn.SetReference(a_, 0, t2_).ok());
  EXPECT_TRUE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());

  const CrossShardStats after = db_.coordinator()->stats();
  EXPECT_EQ(after.cross_shard_commits, before.cross_shard_commits + 1);
  EXPECT_EQ(after.prepares, before.prepares + 2);
  // Both halves landed: the oref on shard 0, the backref on shard 1.
  EXPECT_EQ(db_.PeekObject(a_)->orefs[0], t2_);
  const auto backs = db_.PeekObject(t2_)->backrefs;
  EXPECT_NE(std::find(backs.begin(), backs.end(), a_), backs.end());
}

TEST_F(CrossShardTest, InjectedAbortBetweenPrepareAndCommitRollsBackBoth) {
  ASSERT_TRUE(db_.SetReference(a_, 0, t1_).ok());  // Baseline state.

  db_.coordinator()->SetCommitFailpoint([]() { return true; });
  auto txn = Begin();
  ASSERT_TRUE(txn.SetReference(a_, 0, t2_).ok());
  Status commit = txn.Commit();
  db_.coordinator()->SetCommitFailpoint(nullptr);
  EXPECT_TRUE(commit.IsAborted()) << commit.ToString();
  EXPECT_EQ(db_.coordinator()->stats().injected_aborts, 1u);

  // Atomicity: neither shard kept its half. Shard 0's oref still points
  // at t1_, shard 1's backref array never gained a_.
  EXPECT_EQ(db_.PeekObject(a_)->orefs[0], t1_);
  const auto backs = db_.PeekObject(t2_)->backrefs;
  EXPECT_EQ(std::find(backs.begin(), backs.end(), a_), backs.end());
  // And t1_ kept its backref (the unlink rolled back too).
  const auto kept = db_.PeekObject(t1_)->backrefs;
  EXPECT_NE(std::find(kept.begin(), kept.end(), a_), kept.end());

  // The same commit succeeds once the failpoint is gone.
  auto retry = Begin();
  ASSERT_TRUE(retry.SetReference(a_, 0, t2_).ok());
  ASSERT_TRUE(retry.Commit().ok());
  EXPECT_EQ(db_.PeekObject(a_)->orefs[0], t2_);
}

TEST_F(CrossShardTest, SnapshotNeverSeesHalfACrossShardCommit) {
  // Writer transactions keep the invariant a_.orefs[0] == b_.orefs[0]
  // (both halves set in one transaction, each half on its own shard).
  auto setup = Begin();
  ASSERT_TRUE(setup.SetReference(a_, 0, t1_).ok());
  ASSERT_TRUE(setup.SetReference(b_, 0, t1_).ok());
  ASSERT_TRUE(setup.Commit().ok());

  // A reader pinned before the next commit must see the old pair on both
  // shards even while the writer is mid-flight.
  auto reader = BeginReader();

  auto writer = Begin();
  ASSERT_TRUE(writer.SetReference(a_, 0, t2_).ok());
  // Reader reads while the writer holds dirty state on both shards.
  auto mid_a = reader.Get(a_);
  ASSERT_TRUE(mid_a.ok());
  EXPECT_EQ(mid_a->orefs[0], t1_);
  ASSERT_TRUE(writer.SetReference(b_, 0, t2_).ok());
  ASSERT_TRUE(writer.Commit().ok());

  // Still the old, consistent pair after the commit (repeatable read) —
  // read as one batched GetMany through the per-shard ReadViews.
  auto old_pair = reader.GetMany(std::vector<Oid>{a_, b_});
  ASSERT_TRUE(old_pair.ok());
  ASSERT_EQ(old_pair->size(), 2u);
  EXPECT_EQ((*old_pair)[0].orefs[0], t1_);
  EXPECT_EQ((*old_pair)[1].orefs[0], t1_);
  ASSERT_TRUE(reader.Commit().ok());

  // A fresh reader sees the new, consistent pair.
  auto fresh = BeginReader();
  EXPECT_EQ(fresh.Get(a_)->orefs[0], t2_);
  EXPECT_EQ(fresh.Get(b_)->orefs[0], t2_);
  ASSERT_TRUE(fresh.Commit().ok());
}

TEST_F(CrossShardTest, SnapshotConsistencyUnderConcurrentWriters) {
  // Invariant per committed transaction: a_.orefs[0] == b_.orefs[0].
  auto setup = Begin();
  ASSERT_TRUE(setup.SetReference(a_, 0, t1_).ok());
  ASSERT_TRUE(setup.SetReference(b_, 0, t1_).ok());
  ASSERT_TRUE(setup.Commit().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_reads{0};
  std::atomic<uint64_t> reads_done{0};

  // The writer churns until every reader finished its quota, so each of
  // the readers' snapshots races live cross-shard commits.
  std::thread writer([&]() {
    auto session = db_.OpenSession();
    const Oid targets[2] = {t1_, t2_};
    for (uint64_t i = 0; !stop.load(); ++i) {
      const Oid target = targets[i % 2];
      auto txn = session.Begin();
      Status st = txn.SetReference(a_, 0, target);
      if (st.ok()) st = txn.SetReference(b_, 0, target);
      if (st.ok()) {
        txn.Commit();
      } else {
        txn.Abort();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      auto session = db_.OpenSession();
      for (int i = 0; i < 200; ++i) {
        auto txn = session.Begin(TxnMode::kSnapshotRead);
        auto oa = txn.Get(a_);
        auto ob = txn.Get(b_);
        if (oa.ok() && ob.ok()) {
          if (oa->orefs[0] != ob->orefs[0]) {
            torn_reads.fetch_add(1);
          }
          reads_done.fetch_add(1);
        }
        txn.Commit();
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(torn_reads.load(), 0u)
      << "a snapshot saw one shard's half of a cross-shard commit";
  EXPECT_GT(reads_done.load(), 0u);
}

TEST_F(CrossShardTest, FastPathSnapshotConsistencyUnderConcurrentWriters) {
  // Same invariant as the cross-shard stress, but the writer's whole
  // footprint lives on shard 0, so every commit takes the fast path —
  // whose stamping runs outside the coordinator commit mutex. The
  // in-flight registry must keep readers from pinning S >= a commit
  // whose versions are only half stamped (regression: a reader saw one
  // object's new value and the other's pre-image under one snapshot).
  const Oid e = *db_.CreateObject(0);   // oid 5, shard 0.
  (void)*db_.CreateObject(1);           // oid 6, shard 1 (spacer).
  const Oid g = *db_.CreateObject(1);   // oid 7, shard 0.
  ASSERT_EQ(db_.router().ShardOf(e), 0u);
  ASSERT_EQ(db_.router().ShardOf(g), 0u);

  auto setup = Begin();
  ASSERT_TRUE(setup.SetReference(a_, 0, t1_).ok());
  ASSERT_TRUE(setup.SetReference(e, 0, t1_).ok());
  ASSERT_TRUE(setup.Commit().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_reads{0};

  std::thread writer([&]() {
    auto session = db_.OpenSession();
    const Oid targets[2] = {t1_, g};
    for (uint64_t i = 0; !stop.load(); ++i) {
      const Oid target = targets[i % 2];
      auto txn = session.Begin();
      Status st = txn.SetReference(a_, 0, target);
      if (st.ok()) st = txn.SetReference(e, 0, target);
      if (st.ok()) {
        txn.Commit();
      } else {
        txn.Abort();
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      auto session = db_.OpenSession();
      for (int i = 0; i < 200; ++i) {
        auto txn = session.Begin(TxnMode::kSnapshotRead);
        auto oa = txn.Get(a_);
        auto oe = txn.Get(e);
        if (oa.ok() && oe.ok() && oa->orefs[0] != oe->orefs[0]) {
          torn_reads.fetch_add(1);
        }
        txn.Commit();
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(torn_reads.load(), 0u)
      << "a snapshot saw half of a fast-path (single-shard) commit";
  // These commits really took the fast path: no prepares happened.
  EXPECT_EQ(db_.coordinator()->stats().prepares, 0u);
}

TEST_F(CrossShardTest, PerShardQuiesceLeavesOtherShardsRunning) {
  // Reorganizers and snapshot save/load quiesce ONE shard; traffic whose
  // footprint avoids it proceeds. Under the old global big-latch this
  // commit would deadlock against the guard.
  Database::QuiesceGuard guard(db_.shard(0));
  auto txn = Begin();
  ASSERT_TRUE(txn.SetReference(b_, 0, t2_).ok());  // Shard 1.
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db_.shard(1)->PeekObject(b_)->orefs[0], t2_);
}

TEST_F(CrossShardTest, ReadOnlyTxnRefusesWrites) {
  auto reader = BeginReader();
  EXPECT_TRUE(reader.read_only());
  EXPECT_TRUE(reader.SetReference(a_, 0, t1_).IsInvalidArgument());
  EXPECT_TRUE(reader.Commit().ok());
}

}  // namespace
}  // namespace ocb
