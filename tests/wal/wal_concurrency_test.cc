// WAL writer under concurrency: many session threads commit through the
// group-commit pipeline (the leader does all appending and forcing on
// followers' behalf), then the log is replayed into a fresh engine and
// every committed transaction must be there, whole and linked. Lives in
// tests/wal/ with "concurrency" in the name so CI's TSan job picks it up
// via the concurrency ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "oodb/database.h"
#include "oodb/snapshot.h"
#include "sharding/sharded_database.h"
#include "util/format.h"
#include "wal/recovery.h"
#include "wal/wal_reader.h"

namespace ocb {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
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

class WalConcurrencyTest : public ::testing::Test {
 protected:
  // Both ends clean up: a hung or killed run never reaches TearDown, and
  // a log it leaves behind would poison the next run of this suite.
  void SetUp() override { RemoveArtefacts(); }
  void TearDown() override { RemoveArtefacts(); }

  /// Every file a test here can leave behind: the base, shard and
  /// coordinator logs with all their segments, the automatic-checkpoint
  /// snapshots, and the explicit checkpoint.
  void RemoveArtefacts() {
    std::vector<std::string> logs = {wal_, wal_ + ".coord"};
    for (uint32_t k = 0; k < 8; ++k) {
      logs.push_back(wal_ + Format(".shard%u", k));
    }
    for (const std::string& log : logs) {
      for (uint64_t seg : wal::ListWalSegments(log)) {
        std::remove(wal::WalSegmentPath(log, seg).c_str());
      }
    }
    std::remove((wal_ + ".autockpt0").c_str());
    std::remove((wal_ + ".autockpt1").c_str());
    std::remove(snap_.c_str());
  }

  StorageOptions WalOptions() {
    StorageOptions opts;
    opts.page_size = 1024;
    opts.buffer_pool_pages = 64;
    opts.wal_path = wal_;
    return opts;
  }

  std::string wal_ = TempPath("ocb_wal_concurrency_test.wal");
  std::string snap_ = TempPath("ocb_wal_concurrency_test.snap");
};

// Runs kThreads committer threads against \p db, each committing
// kTxnsPerThread linked pairs; returns every committed {a, b}.
template <typename DB>
std::vector<std::pair<Oid, Oid>> Storm(DB* db, int threads, int per_thread) {
  std::mutex mu;
  std::vector<std::pair<Oid, Oid>> committed;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([db, per_thread, &mu, &committed]() {
      auto session = db->OpenSession();
      for (int i = 0; i < per_thread; ++i) {
        auto txn = session.Begin();
        auto a = txn.Create(0);
        auto b = txn.Create(1);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_TRUE(txn.SetReference(*a, 0, *b).ok());
        ASSERT_TRUE(txn.Commit().ok());
        std::lock_guard<std::mutex> lock(mu);
        committed.emplace_back(*a, *b);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return committed;
}

TEST_F(WalConcurrencyTest, ConcurrentCommittersAllRecover) {
  std::vector<std::pair<Oid, Oid>> committed;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    ASSERT_TRUE(db.wal_enabled());
    committed = Storm(&db, 8, 16);
    ASSERT_EQ(committed.size(), 8u * 16u);
  }
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), committed.size() * 2);
  for (const auto& [a, b] : committed) {
    auto ra = revived.PeekObject(a);
    ASSERT_TRUE(ra.ok()) << "oid " << a;
    EXPECT_EQ(ra->orefs[0], b) << "oid " << a;
    EXPECT_TRUE(revived.PeekObject(b).ok()) << "oid " << b;
  }
}

TEST_F(WalConcurrencyTest, CheckpointRacesCommittersAndStillRecovers) {
  // SaveSnapshot refuses while writers hold locks, so the checkpointer
  // spins until it lands between commits; whether each commit falls
  // before or after the watermark, recovery must surface all of them.
  std::vector<std::pair<Oid, Oid>> committed;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    std::atomic<bool> done{false};
    std::atomic<int> checkpoints{0};
    std::thread checkpointer([&]() {
      while (!done.load(std::memory_order_relaxed)) {
        if (SaveSnapshot(&db, snap_).ok()) {
          checkpoints.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    });
    committed = Storm(&db, 6, 12);
    done.store(true, std::memory_order_relaxed);
    checkpointer.join();
    // The racer may never win a quiesce window against a dense storm, so
    // guarantee at least one checkpoint, with a committed tail past it.
    if (checkpoints.load() == 0) {
      ASSERT_TRUE(SaveSnapshot(&db, snap_).ok());
    }
    auto session = db.OpenSession();
    auto txn = session.Begin();
    auto a = txn.Create(0);
    auto b = txn.Create(1);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(txn.SetReference(*a, 0, *b).ok());
    ASSERT_TRUE(txn.Commit().ok());
    committed.emplace_back(*a, *b);
  }
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), committed.size() * 2);
  for (const auto& [a, b] : committed) {
    auto ra = revived.PeekObject(a);
    ASSERT_TRUE(ra.ok()) << "oid " << a;
    EXPECT_EQ(ra->orefs[0], b) << "oid " << a;
  }
}

TEST_F(WalConcurrencyTest, ShardedConcurrentCommittersAllRecover) {
  // Round-robin creation makes every pair cross-shard, so concurrent
  // committers hammer the 2PC choreography: participant appends, shard
  // forces, and marker appends interleave across threads.
  constexpr uint32_t kShards = 4;
  std::vector<std::pair<Oid, Oid>> committed;
  {
    ShardedDatabase db(WalOptions(), kShards);
    db.SetSchema(TwoClassSchema());
    ASSERT_TRUE(db.wal_enabled());
    committed = Storm(&db, 6, 10);
    ASSERT_EQ(committed.size(), 6u * 10u);
  }
  ShardedDatabase revived(WalOptions(), kShards);
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), committed.size() * 2);
  for (const auto& [a, b] : committed) {
    EXPECT_TRUE(revived.ContainsObject(a)) << "oid " << a;
    EXPECT_TRUE(revived.ContainsObject(b)) << "oid " << b;
  }
}

}  // namespace
}  // namespace ocb
