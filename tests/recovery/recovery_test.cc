// Crash-recovery tests: WAL replay onto fresh engines, checkpoint
// fast-forward, torn-tail and duplicate-replay edge cases, and the
// all-or-none rule for cross-shard (2PC) commits.

#include "wal/recovery.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "engine/session.h"
#include "oodb/database.h"
#include "oodb/snapshot.h"
#include "sharding/sharded_database.h"
#include "util/format.h"
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

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(wal_.c_str());
    std::remove(snap_.c_str());
    for (uint32_t k = 0; k < 8; ++k) {
      std::remove((wal_ + Format(".shard%u", k)).c_str());
      std::remove((snap_ + Format(".shard%u", k)).c_str());
    }
    std::remove((wal_ + ".coord").c_str());
  }

  StorageOptions WalOptions() {
    StorageOptions opts;
    opts.page_size = 1024;
    opts.buffer_pool_pages = 32;
    opts.wal_path = wal_;
    return opts;
  }

  std::string wal_ = TempPath("ocb_recovery_test.wal");
  std::string snap_ = TempPath("ocb_recovery_test.snap");
};

// Commits two linked objects through the session API; returns {a, b}.
template <typename DB>
std::pair<Oid, Oid> CommitLinkedPair(DB* db) {
  auto session = db->OpenSession();
  auto txn = session.Begin();
  auto a = txn.Create(0);
  auto b = txn.Create(1);
  EXPECT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(txn.SetReference(*a, 0, *b).ok());
  EXPECT_TRUE(txn.Commit().ok());
  return {*a, *b};
}

TEST_F(RecoveryTest, CommittedTransactionsSurviveRestart) {
  Oid a = 0, b = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    std::tie(a, b) = CommitLinkedPair(&db);
    // Destructor closes the log; nothing else is persisted.
  }
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());

  auto ra = revived.PeekObject(a);
  auto rb = revived.PeekObject(b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->class_id, 0u);
  EXPECT_EQ(ra->orefs[0], b);           // The link replayed too.
  EXPECT_EQ(rb->backrefs.size(), 1u);   // Symmetric backref intact.
  // Extents rebuilt, commit axis advanced past the replayed commit.
  EXPECT_EQ(revived.ExtentSnapshot(0), std::vector<Oid>{a});
  EXPECT_EQ(revived.ExtentSnapshot(1), std::vector<Oid>{b});
  EXPECT_GE(revived.version_store()->latest(), 1u);
  // And the revived engine keeps working: new oids never collide.
  auto fresh = revived.CreateObject(0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, b);
}

TEST_F(RecoveryTest, UncommittedWritesDoNotReplay) {
  Oid committed = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    auto session = db.OpenSession();
    auto good = session.Begin();
    auto c = good.Create(0);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(good.Commit().ok());
    committed = *c;
    // A transaction abandoned mid-flight: its writes were applied in
    // place but never logged (redo is built at commit), so recovery
    // must not resurrect them.
    auto doomed = session.Begin();
    ASSERT_TRUE(doomed.Create(1).ok());
    ASSERT_TRUE(doomed.Abort().ok());
  }
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_TRUE(revived.PeekObject(committed).ok());
  EXPECT_EQ(revived.object_count(), 1u);
  EXPECT_TRUE(revived.ExtentSnapshot(1).empty());
}

TEST_F(RecoveryTest, CommitIntoUnrecoveredLogIsRefusedUntilRecovery) {
  Oid a = 0, b = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    EXPECT_FALSE(db.wal_recovery_pending());  // A fresh log.
    std::tie(a, b) = CommitLinkedPair(&db);
  }
  Database reopened(WalOptions());
  reopened.SetSchema(TwoClassSchema());
  ASSERT_TRUE(reopened.wal_recovery_pending());
  auto session = reopened.OpenSession();
  {
    // Appending now would restart the timestamp axis at 1 behind the
    // earlier run's records: refused, and the writer rolled back.
    auto txn = session.Begin();
    auto c = txn.Create(0);
    ASSERT_TRUE(c.ok());
    Status st = txn.Commit();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(txn.state(), TxnState::kAborted);
    EXPECT_EQ(reopened.object_count(), 0u);
    // Readers have nothing to log and still commit.
    auto reader = session.Begin(TxnMode::kSnapshotRead);
    EXPECT_TRUE(reader.Commit().ok());
  }
  ASSERT_TRUE(wal::RecoverDatabase(&reopened).ok());
  EXPECT_FALSE(reopened.wal_recovery_pending());
  auto [c, d] = CommitLinkedPair(&reopened);

  // Both runs' commits replay into one consistent state.
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), 4u);
  EXPECT_EQ(revived.PeekObject(a)->orefs[0], b);
  EXPECT_EQ(revived.PeekObject(c)->orefs[0], d);
}

TEST_F(RecoveryTest, ShardedCommitIntoUnrecoveredLogIsRefusedUntilRecovery) {
  constexpr uint32_t kShards = 4;
  {
    ShardedDatabase db(WalOptions(), kShards);
    db.SetSchema(TwoClassSchema());
    EXPECT_FALSE(db.wal_recovery_pending());
    CommitLinkedPair(&db);
  }
  ShardedDatabase reopened(WalOptions(), kShards);
  reopened.SetSchema(TwoClassSchema());
  ASSERT_TRUE(reopened.wal_recovery_pending());
  {
    auto txn = reopened.OpenSession().Begin();
    ASSERT_TRUE(txn.Create(0).ok());
    Status st = txn.Commit();
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    EXPECT_EQ(reopened.object_count(), 0u);
  }
  ASSERT_TRUE(wal::RecoverShardedDatabase(&reopened).ok());
  EXPECT_FALSE(reopened.wal_recovery_pending());
  auto [x, y] = CommitLinkedPair(&reopened);
  EXPECT_TRUE(reopened.ContainsObject(x));
  EXPECT_TRUE(reopened.ContainsObject(y));
}

TEST_F(RecoveryTest, ReplayIsIdempotent) {
  Oid a = 0, b = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    std::tie(a, b) = CommitLinkedPair(&db);
  }
  // Recover, then recover AGAIN over the already-recovered state — the
  // restart-during-recovery scenario. Same state, no duplicate extent
  // members, no errors.
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), 2u);
  EXPECT_EQ(revived.ExtentSnapshot(0), std::vector<Oid>{a});
  EXPECT_EQ(revived.ExtentSnapshot(1), std::vector<Oid>{b});
}

TEST_F(RecoveryTest, TornLastRecordIsDroppedCleanly) {
  Oid first = 0, second = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    auto session = db.OpenSession();
    auto t1 = session.Begin();
    auto c1 = t1.Create(0);
    ASSERT_TRUE(c1.ok());
    ASSERT_TRUE(t1.Commit().ok());
    first = *c1;
    auto t2 = session.Begin();
    auto c2 = t2.Create(1);
    ASSERT_TRUE(c2.ok());
    ASSERT_TRUE(t2.Commit().ok());
    second = *c2;
  }
  // Crash torn mid-append: chop 3 bytes off the last record (inside its
  // CRC-covered body).
  auto scan = wal::ReadWal(wal_);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  ASSERT_EQ(truncate(wal_.c_str(),
                     static_cast<off_t>(scan->valid_end - 3)),
            0);
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_TRUE(revived.PeekObject(first).ok());
  EXPECT_FALSE(revived.PeekObject(second).ok());
  EXPECT_EQ(revived.object_count(), 1u);
}

TEST_F(RecoveryTest, CheckpointPlusTailReplay) {
  Oid a = 0, b = 0, c = 0, d = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    std::tie(a, b) = CommitLinkedPair(&db);
    ASSERT_TRUE(SaveSnapshot(&db, snap_).ok());  // Logs a checkpoint.
    std::tie(c, d) = CommitLinkedPair(&db);      // Tail past the watermark.
  }
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  for (Oid oid : {a, b, c, d}) {
    EXPECT_TRUE(revived.PeekObject(oid).ok()) << "oid " << oid;
  }
  EXPECT_EQ(revived.object_count(), 4u);
  EXPECT_EQ(revived.ExtentSnapshot(0), (std::vector<Oid>{a, c}));
}

TEST_F(RecoveryTest, SnapshotOnlyRestartWithEmptyTail) {
  // Everything committed before the checkpoint; the log's tail past the
  // watermark is empty — recovery is exactly the snapshot.
  Oid a = 0, b = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    std::tie(a, b) = CommitLinkedPair(&db);
    ASSERT_TRUE(SaveSnapshot(&db, snap_).ok());
  }
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), 2u);
  EXPECT_TRUE(revived.PeekObject(a).ok());
  EXPECT_TRUE(revived.PeekObject(b).ok());
}

TEST_F(RecoveryTest, MissingSnapshotFallsBackToFullReplay) {
  Oid a = 0, b = 0, c = 0, d = 0;
  {
    Database db(WalOptions());
    db.SetSchema(TwoClassSchema());
    std::tie(a, b) = CommitLinkedPair(&db);
    ASSERT_TRUE(SaveSnapshot(&db, snap_).ok());
    std::tie(c, d) = CommitLinkedPair(&db);
  }
  // The checkpoint's snapshot file is gone: recovery must fall back to
  // replaying the whole log from scratch, not fail.
  ASSERT_EQ(std::remove(snap_.c_str()), 0);
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  for (Oid oid : {a, b, c, d}) {
    EXPECT_TRUE(revived.PeekObject(oid).ok()) << "oid " << oid;
  }
}

TEST_F(RecoveryTest, MissingLogRecoversToEmpty) {
  Database revived(WalOptions());
  revived.SetSchema(TwoClassSchema());
  // The Database constructor creates the log file; recovery of a log
  // with zero records is a no-op, not an error.
  ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), 0u);
}

TEST_F(RecoveryTest, WalDisabledRecoveryIsNoOp) {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 32;
  Database db(opts);
  db.SetSchema(TwoClassSchema());
  EXPECT_FALSE(db.wal_enabled());
  EXPECT_TRUE(wal::RecoverDatabase(&db).ok());
}

// --- Sharded ---------------------------------------------------------------

TEST_F(RecoveryTest, ShardedCommitsSurviveRestart) {
  constexpr uint32_t kShards = 4;
  std::vector<Oid> oids;
  {
    ShardedDatabase db(WalOptions(), kShards);
    db.SetSchema(TwoClassSchema());
    ASSERT_TRUE(db.wal_enabled());
    // Round-robin creation spreads the pair across shards, so these
    // commits exercise cross-shard 2PC (records + coordinator markers).
    for (int i = 0; i < 6; ++i) {
      auto [a, b] = CommitLinkedPair(&db);
      oids.push_back(a);
      oids.push_back(b);
    }
  }
  ShardedDatabase revived(WalOptions(), kShards);
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
  for (Oid oid : oids) {
    EXPECT_TRUE(revived.ContainsObject(oid)) << "oid " << oid;
  }
  EXPECT_EQ(revived.object_count(), oids.size());
  // The global axis resumed past every replayed commit: new cross-shard
  // commits still work and allocate fresh oids.
  auto [x, y] = CommitLinkedPair(&revived);
  EXPECT_TRUE(revived.ContainsObject(x));
  EXPECT_TRUE(revived.ContainsObject(y));
}

TEST_F(RecoveryTest, CoordinatedCommitWithoutMarkerDropsAllShards) {
  // The all-or-none rule, probed directly: delete the coordinator log so
  // no 2PC commit has a durable marker — every cross-shard commit must
  // vanish from EVERY shard, even though each shard's own log still
  // holds its (forced) half of the records.
  constexpr uint32_t kShards = 4;
  std::vector<Oid> oids;
  {
    ShardedDatabase db(WalOptions(), kShards);
    db.SetSchema(TwoClassSchema());
    for (int i = 0; i < 4; ++i) {
      auto [a, b] = CommitLinkedPair(&db);
      oids.push_back(a);
      oids.push_back(b);
    }
  }
  ASSERT_EQ(std::remove((wal_ + ".coord").c_str()), 0);
  ShardedDatabase revived(WalOptions(), kShards);
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
  for (Oid oid : oids) {
    EXPECT_FALSE(revived.ContainsObject(oid)) << "oid " << oid;
  }
  EXPECT_EQ(revived.object_count(), 0u);
}

TEST_F(RecoveryTest, ShardedReplayIsIdempotent) {
  constexpr uint32_t kShards = 4;
  std::vector<Oid> oids;
  {
    ShardedDatabase db(WalOptions(), kShards);
    db.SetSchema(TwoClassSchema());
    auto [a, b] = CommitLinkedPair(&db);
    oids = {a, b};
  }
  ShardedDatabase revived(WalOptions(), kShards);
  revived.SetSchema(TwoClassSchema());
  ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
  ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
  EXPECT_EQ(revived.object_count(), 2u);
  for (Oid oid : oids) EXPECT_TRUE(revived.ContainsObject(oid));
}

}  // namespace
}  // namespace ocb
