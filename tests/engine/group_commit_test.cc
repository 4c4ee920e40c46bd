// Group-commit tests: deterministic leader–follower batch formation at
// the CommitPipeline level, semantic equivalence of grouped commits on a
// Database (every member gets its own consecutive timestamp; snapshots
// see whole transactions), concurrent-session durability, one real WAL
// fsync per writer batch, and 2PC batch atomicity under an abort
// injected mid-batch on the sharded engine, and DSTC statistics under
// batches whose commit callbacks all run on the leader's thread.

#include "concurrency/commit_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "clustering/dstc.h"
#include "engine/session.h"
#include "oodb/database.h"
#include "sharding/sharded_database.h"
#include "util/rng.h"
#include "wal/wal_writer.h"

namespace ocb {
namespace {

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 32;
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

TEST(CommitPipelineTest, FollowersAccumulateIntoOneBatch) {
  // Deterministic batch formation: the first submitter leads a batch of
  // one and parks inside the batch function; two followers enqueue
  // meanwhile; on release, ONE follower leads a batch containing both.
  std::mutex mu;
  std::condition_variable cv;
  bool hold_first = true;
  int batches_seen = 0;
  std::vector<size_t> batch_sizes;

  CommitPipeline pipeline(
      [&](const std::vector<CommitPipeline::Request*>& batch) {
        {
          std::unique_lock<std::mutex> lock(mu);
          ++batches_seen;
          batch_sizes.push_back(batch.size());
          if (batches_seen == 1) {
            cv.wait(lock, [&]() { return !hold_first; });
          }
        }
        for (CommitPipeline::Request* r : batch) r->status = Status::OK();
      });

  int h1 = 1, h2 = 2, h3 = 3;
  std::thread leader([&]() { EXPECT_TRUE(pipeline.Submit(&h1).ok()); });
  // Wait until the leader is inside the batch function.
  for (int i = 0; i < 2000 && pipeline.stats().batches == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(batches_seen, 1);
  }
  std::thread f1([&]() { EXPECT_TRUE(pipeline.Submit(&h2).ok()); });
  std::thread f2([&]() { EXPECT_TRUE(pipeline.Submit(&h3).ok()); });
  // Let both followers enqueue, then release the leader.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    hold_first = false;
  }
  cv.notify_all();
  leader.join();
  f1.join();
  f2.join();

  const GroupCommitStats stats = pipeline.stats();
  EXPECT_EQ(stats.commits, 3u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch_formed, 2u);
  EXPECT_EQ(stats.grouped_commits, 2u);
  ASSERT_EQ(batch_sizes.size(), 2u);
  EXPECT_EQ(batch_sizes[0], 1u);
  EXPECT_EQ(batch_sizes[1], 2u);
}

TEST(CommitPipelineTest, MaxBatchOneDegradesToPerTransactionCommits) {
  // Same choreography, but a batch cap of 1 forces three leader rounds.
  std::mutex mu;
  std::condition_variable cv;
  bool hold_first = true;
  int batches_seen = 0;

  CommitPipeline pipeline(
      [&](const std::vector<CommitPipeline::Request*>& batch) {
        {
          std::unique_lock<std::mutex> lock(mu);
          ++batches_seen;
          if (batches_seen == 1) {
            cv.wait(lock, [&]() { return !hold_first; });
          }
        }
        EXPECT_EQ(batch.size(), 1u);
        for (CommitPipeline::Request* r : batch) r->status = Status::OK();
      },
      /*max_batch=*/1);

  int h1 = 1, h2 = 2, h3 = 3;
  std::thread leader([&]() { EXPECT_TRUE(pipeline.Submit(&h1).ok()); });
  for (int i = 0; i < 2000 && pipeline.stats().batches == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::thread f1([&]() { EXPECT_TRUE(pipeline.Submit(&h2).ok()); });
  std::thread f2([&]() { EXPECT_TRUE(pipeline.Submit(&h3).ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mu);
    hold_first = false;
  }
  cv.notify_all();
  leader.join();
  f1.join();
  f2.join();

  const GroupCommitStats stats = pipeline.stats();
  EXPECT_EQ(stats.commits, 3u);
  EXPECT_EQ(stats.batches, 3u);
  EXPECT_EQ(stats.max_batch_formed, 1u);
  EXPECT_EQ(stats.grouped_commits, 0u);
}

TEST(GroupCommitTest, GroupedCommitsGetDistinctTimestampsAndCleanChains) {
  // Batch stamping must be indistinguishable from per-transaction
  // commits: each member its own timestamp, snapshots see whole
  // transactions, GC reclaims everything once views close.
  Database db(TestOptions());
  db.SetSchema(TwoClassSchema());
  const Oid source = *db.CreateObject(0);
  const Oid t1 = *db.CreateObject(1);
  const Oid t2 = *db.CreateObject(1);

  const CommitTs before = db.version_store()->latest();
  auto session = db.OpenSession();
  for (Oid to : {t1, t2, t1}) {
    auto txn = session.Begin();
    ASSERT_TRUE(txn.SetReference(source, 0, to).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Three writer commits → three distinct timestamps on the axis.
  EXPECT_EQ(db.version_store()->latest(), before + 3);
  EXPECT_GE(db.group_commit_stats().commits, 3u);

  // A new snapshot sees the final state; GC fully reclaims.
  auto reader = session.Begin(TxnMode::kSnapshotRead);
  EXPECT_EQ(reader.Get(source)->orefs[0], t1);
  ASSERT_TRUE(reader.Commit().ok());
  db.CollectVersionGarbage();
  EXPECT_EQ(db.version_store()->stats().live_versions, 0u);
}

TEST(GroupCommitTest, ConcurrentSessionCommitsAreAllDurable) {
  Database db(TestOptions());
  db.SetSchema(TwoClassSchema());
  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 50;
  // One source object per thread: disjoint footprints, so every commit
  // succeeds — the contention is purely on the commit path, which is
  // exactly what the pipeline serializes.
  std::vector<Oid> sources;
  std::vector<Oid> targets;
  for (int t = 0; t < kThreads; ++t) {
    sources.push_back(*db.CreateObject(0));
    targets.push_back(*db.CreateObject(1));
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto session = db.OpenSession();
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = session.Begin();
        const uint32_t slot = static_cast<uint32_t>(i % 3);
        if (!txn.SetReference(sources[static_cast<size_t>(t)], slot,
                              targets[static_cast<size_t>(t)])
                 .ok() ||
            !txn.Commit().ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed);

  const GroupCommitStats stats = db.group_commit_stats();
  EXPECT_EQ(stats.commits,
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GE(stats.batches, 1u);
  // Every thread's final write survived.
  for (int t = 0; t < kThreads; ++t) {
    const auto obj = db.PeekObject(sources[static_cast<size_t>(t)]);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->orefs[(kTxnsPerThread - 1) % 3],
              targets[static_cast<size_t>(t)]);
  }
  EXPECT_EQ(db.lock_manager()->locked_object_count(), 0u);
}

TEST(GroupCommitTest, RealWalForcesOncePerWriterBatch) {
  // Group commit's payoff on the real WAL: however the storm's commits
  // coalesce, the leader issues ONE fsync per batch. Every commit must
  // really write (a SetReference that rewrites the same value leaves no
  // undo record, and a writeless batch forces nothing), so each flips
  // slot 0 of its thread's own source between a target and kInvalidOid.
  const std::string wal = testing::TempDir() + "/ocb_group_commit_test.wal";
  std::remove(wal.c_str());
  StorageOptions opts = TestOptions();
  opts.wal_path = wal;
  {
    Database db(opts);
    db.SetSchema(TwoClassSchema());
    ASSERT_TRUE(db.wal_enabled());
    constexpr int kThreads = 6;
    constexpr int kTxnsPerThread = 20;
    std::vector<Oid> sources;
    std::vector<Oid> targets;
    for (int t = 0; t < kThreads; ++t) {
      sources.push_back(*db.CreateObject(0));
      targets.push_back(*db.CreateObject(1));
    }
    const uint64_t forces_before = db.wal()->forces();
    const GroupCommitStats before = db.group_commit_stats();

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        auto session = db.OpenSession();
        for (int i = 0; i < kTxnsPerThread; ++i) {
          auto txn = session.Begin();
          const Oid to =
              i % 2 == 0 ? targets[static_cast<size_t>(t)] : kInvalidOid;
          if (!txn.SetReference(sources[static_cast<size_t>(t)], 0, to)
                   .ok() ||
              !txn.Commit().ok()) {
            failed = true;
            return;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_FALSE(failed);

    const GroupCommitStats after = db.group_commit_stats();
    EXPECT_EQ(after.commits - before.commits,
              static_cast<uint64_t>(kThreads) * kTxnsPerThread);
    EXPECT_EQ(db.wal()->forces() - forces_before,
              after.batches - before.batches);
  }
  std::remove(wal.c_str());
}

/// DSTC that remembers, per client thread, each crossing it forwards, and
/// keeps those of the transactions whose client saw Commit() succeed.
class RecordingDstc : public Dstc {
 public:
  using Dstc::Dstc;

  void OnLinkCross(Oid from, Oid to, RefTypeId type, bool reverse) override {
    if (from != kInvalidOid && to != kInvalidOid && from != to) {
      std::lock_guard<std::mutex> lock(mu_);
      pending_[std::this_thread::get_id()].push_back({from, to});
    }
    Dstc::OnLinkCross(from, to, type, reverse);
  }

  /// Called on the client thread once its transaction has finished.
  void Finish(bool committed) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& mine = pending_[std::this_thread::get_id()];
    if (committed) committed_.insert(mine.begin(), mine.end());
    mine.clear();
  }

  size_t distinct_committed_pairs() {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_.size();
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, std::vector<std::pair<Oid, Oid>>> pending_;
  std::set<std::pair<Oid, Oid>> committed_;
};

TEST(GroupCommitTest, DstcCountsEveryCommittedCrossingOfABatch) {
  // CommitBatch runs OnTransactionEnd for every member on the leader's
  // thread, so a policy that folds a transaction's crossings in at End,
  // under the ending thread's id, loses the followers' crossings. Four
  // 2PL writers traverse a shared graph, each from its own roots, and
  // rewrite a private object through a real WAL, so batches form; every
  // fifth transaction aborts instead. With one open period, a threshold
  // of 1 and no decay, the consolidated matrix must hold exactly the
  // committed pairs.
  const std::string wal = testing::TempDir() + "/ocb_group_commit_dstc.wal";
  std::remove(wal.c_str());
  StorageOptions opts = TestOptions();
  opts.wal_path = wal;
  {
    Database db(opts);
    db.SetSchema(TwoClassSchema());
    ASSERT_TRUE(db.wal_enabled());
    constexpr int kThreads = 4;
    constexpr int kTxnsPerThread = 40;
    constexpr int64_t kGraph = kThreads * kTxnsPerThread * 2;
    std::vector<Oid> graph;
    for (int64_t i = 0; i < kGraph; ++i) graph.push_back(*db.CreateObject(0));
    LewisPayneRng rng(2024);
    for (Oid from : graph) {
      for (uint32_t slot = 0; slot < 3; ++slot) {
        const auto to = static_cast<size_t>(rng.UniformInt(0, kGraph - 1));
        ASSERT_TRUE(db.SetReference(from, slot, graph[to]).ok());
      }
    }
    // Class 1 objects nobody references: each writer's private target.
    std::vector<Oid> privates;
    for (int t = 0; t < kThreads; ++t) privates.push_back(*db.CreateObject(1));

    DstcOptions options;
    options.observation_period_transactions = 1u << 30;
    options.selection_threshold = 1.0;
    options.consolidation_decay = 1.0;
    RecordingDstc dstc(options);
    db.SetObserver(&dstc);

    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        auto session = db.OpenSession();
        for (int i = 0; i < kTxnsPerThread; ++i) {
          auto txn = session.Begin(TxnMode::k2PL);
          auto root = txn.Get(graph[static_cast<size_t>(
              2 * (t * kTxnsPerThread + i))]);
          if (!root.ok() || !txn.Traverse(*root, 2, TraversePolicy{}).ok()) {
            failed = true;
            return;
          }
          auto mine = txn.Get(privates[static_cast<size_t>(t)]);
          if (!mine.ok() || !txn.Put(*mine).ok()) {
            failed = true;
            return;
          }
          const bool commit = i % 5 != 4;
          if (!(commit ? txn.Commit() : txn.Abort()).ok()) {
            failed = true;
            return;
          }
          dstc.Finish(commit);
        }
      });
    }
    for (auto& t : threads) t.join();
    db.SetObserver(nullptr);
    ASSERT_FALSE(failed);

    ASSERT_TRUE(dstc.Reorganize(&db).ok());
    EXPECT_GT(dstc.distinct_committed_pairs(), 0u);
    EXPECT_EQ(dstc.consolidated_links(), dstc.distinct_committed_pairs());
  }
  std::remove(wal.c_str());
}

TEST(GroupCommitTest, InjectedAbortMidBatchKillsOnlyThatMember) {
  // Two cross-shard transactions with disjoint footprints commit
  // concurrently through the grouped 2PC path while the failpoint fires
  // exactly once: exactly one member aborts (fully rolled back on both
  // shards), the other commits — whether or not they shared a batch.
  ShardedDatabase db(TestOptions(), 2);
  db.SetSchema(TwoClassSchema());
  const Oid a = *db.CreateObject(0);   // Shard 0.
  const Oid b = *db.CreateObject(0);   // Shard 1.
  const Oid t1 = *db.CreateObject(1);  // Shard 0.
  const Oid t2 = *db.CreateObject(1);  // Shard 1.
  ASSERT_EQ(db.router().ShardOf(a), 0u);
  ASSERT_EQ(db.router().ShardOf(t2), 1u);

  std::atomic<int> fires{0};
  db.coordinator()->SetCommitFailpoint(
      [&]() { return fires.fetch_add(1) == 0; });

  // a → t2 crosses 0→1; b → t1 crosses 1→0. Disjoint lock footprints.
  Status s1, s2;
  std::thread c1([&]() {
    auto txn = db.OpenSession().Begin();
    Status st = txn.SetReference(a, 0, t2);
    s1 = st.ok() ? txn.Commit() : st;
  });
  std::thread c2([&]() {
    auto txn = db.OpenSession().Begin();
    Status st = txn.SetReference(b, 0, t1);
    s2 = st.ok() ? txn.Commit() : st;
  });
  c1.join();
  c2.join();
  db.coordinator()->SetCommitFailpoint(nullptr);

  // Exactly one member died to the failpoint.
  EXPECT_NE(s1.IsAborted(), s2.IsAborted())
      << "s1=" << s1.ToString() << " s2=" << s2.ToString();
  EXPECT_EQ(db.coordinator()->stats().injected_aborts, 1u);

  // The survivor's halves landed on both shards; the victim's neither.
  if (s1.IsAborted()) {
    EXPECT_TRUE(s2.ok());
    EXPECT_EQ(db.PeekObject(a)->orefs[0], kInvalidOid);
    EXPECT_TRUE(db.PeekObject(t2)->backrefs.empty());
    EXPECT_EQ(db.PeekObject(b)->orefs[0], t1);
  } else {
    EXPECT_TRUE(s1.ok());
    EXPECT_EQ(db.PeekObject(b)->orefs[0], kInvalidOid);
    EXPECT_TRUE(db.PeekObject(t1)->backrefs.empty());
    EXPECT_EQ(db.PeekObject(a)->orefs[0], t2);
  }
  // Locks fully drained on both shards either way.
  for (uint32_t k = 0; k < db.shard_count(); ++k) {
    EXPECT_EQ(db.shard(k)->lock_manager()->locked_object_count(), 0u);
  }
}

TEST(GroupCommitTest, ShardedGroupedCommitKeepsSnapshotsWhole) {
  // Writers keep a_.orefs[0] == b_.orefs[0] through grouped commits
  // (fast path AND 2PC members mixed); snapshot readers must never see
  // the invariant broken.
  ShardedDatabase db(TestOptions(), 2);
  db.SetSchema(TwoClassSchema());
  const Oid a = *db.CreateObject(0);   // Shard 0.
  const Oid b = *db.CreateObject(0);   // Shard 1.
  const Oid t1 = *db.CreateObject(1);  // Shard 0.
  const Oid t2 = *db.CreateObject(1);  // Shard 1.

  {
    auto setup = db.OpenSession().Begin();
    ASSERT_TRUE(setup.SetReference(a, 0, t1).ok());
    ASSERT_TRUE(setup.SetReference(b, 0, t1).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread writer([&]() {
    auto session = db.OpenSession();
    const Oid targets[2] = {t1, t2};
    for (uint64_t i = 0; !stop.load(); ++i) {
      auto txn = session.Begin();
      const Oid target = targets[i % 2];
      Status st = txn.SetReference(a, 0, target);
      if (st.ok()) st = txn.SetReference(b, 0, target);
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
      auto session = db.OpenSession();
      for (int i = 0; i < 150; ++i) {
        auto txn = session.Begin(TxnMode::kSnapshotRead);
        auto pair = txn.GetMany(std::vector<Oid>{a, b});
        if (pair.ok() && pair->size() == 2 &&
            (*pair)[0].orefs[0] != (*pair)[1].orefs[0]) {
          torn.fetch_add(1);
        }
        txn.Commit();
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(torn.load(), 0u)
      << "a snapshot saw half a grouped cross-shard commit";
}

}  // namespace
}  // namespace ocb
