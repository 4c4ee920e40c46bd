// Session API v2 semantics: RAII auto-abort (locks released, pending
// versions sealed), typed lifecycle errors on moved-from handles,
// batched GetMany equivalence with N single gets under 2PL and MVCC,
// WriteBatch per-operation outcomes, engine-side Traverse equivalence,
// legacy brackets, and the strict-2PL read-only flavour.

#include "engine/session.h"

#include <gtest/gtest.h>

#include <vector>

#include "oodb/database.h"
#include "sharding/sharded_database.h"

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

/// Observer spy counting transaction boundaries.
class BoundarySpy : public AccessObserver {
 public:
  void OnTransactionBegin() override { ++begins_; }
  void OnTransactionEnd() override { ++ends_; }
  void OnTransactionAbort() override { ++aborts_; }
  int begins_ = 0;
  int ends_ = 0;
  int aborts_ = 0;
};

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : db_(TestOptions()) {
    db_.SetSchema(TwoClassSchema());
    source_ = *db_.CreateObject(0);
    target1_ = *db_.CreateObject(1);
    target2_ = *db_.CreateObject(1);
  }

  Database db_;
  Oid source_ = kInvalidOid;
  Oid target1_ = kInvalidOid;
  Oid target2_ = kInvalidOid;
};

TEST_F(SessionTest, AutoAbortOnScopeExitRollsBackAndReleasesLocks) {
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());
  {
    auto session = db_.OpenSession();
    auto txn = session.Begin();
    ASSERT_TRUE(txn.SetReference(source_, 0, target2_).ok());
    ASSERT_GT(db_.lock_manager()->locked_object_count(), 0u);
    // No Commit: the RAII destructor must abort.
  }
  // Locks drained, mutation rolled back.
  EXPECT_EQ(db_.lock_manager()->locked_object_count(), 0u);
  EXPECT_EQ(db_.PeekObject(source_)->orefs[0], target1_);
  // The pending version was *sealed* (StampAborted), not dropped —
  // that is what keeps racing snapshot readers sound.
  EXPECT_GE(db_.version_store()->stats().versions_discarded, 1u);
  // And it is ordinary GC food afterwards.
  db_.CollectVersionGarbage();
  EXPECT_EQ(db_.version_store()->stats().live_versions, 0u);
}

TEST_F(SessionTest, AutoAbortClosesReadView) {
  {
    auto session = db_.OpenSession();
    auto txn = session.Begin(TxnMode::kSnapshotRead);
    ASSERT_TRUE(txn.Get(source_).ok());
    EXPECT_EQ(db_.read_views()->open_count(), 1u);
  }
  EXPECT_EQ(db_.read_views()->open_count(), 0u);
}

TEST_F(SessionTest, MovedFromTransactionIsInertAndTyped) {
  auto session = db_.OpenSession();
  auto txn = session.Begin();
  ASSERT_TRUE(txn.SetReference(source_, 0, target1_).ok());
  auto moved = std::move(txn);
  // The moved-from handle refuses everything with a typed error...
  EXPECT_FALSE(txn.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(txn.Get(source_).status().IsInvalidArgument());
  EXPECT_TRUE(txn.Commit().IsInvalidArgument());
  // ...while the moved-to handle owns the transaction and commits it.
  ASSERT_TRUE(moved.valid());
  ASSERT_TRUE(moved.Commit().ok());
  EXPECT_EQ(db_.PeekObject(source_)->orefs[0], target1_);
}

TEST_F(SessionTest, GetManyMatchesSingleGetsUnder2pl) {
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());
  ASSERT_TRUE(db_.SetReference(source_, 1, target2_).ok());
  const std::vector<Oid> oids = {target2_, source_, target1_, source_};

  auto session = db_.OpenSession();
  auto singles = session.Begin();
  std::vector<Object> expected;
  for (Oid oid : oids) {
    auto obj = singles.Get(oid);
    ASSERT_TRUE(obj.ok());
    expected.push_back(std::move(obj).value());
  }
  ASSERT_TRUE(singles.Commit().ok());

  auto batched = session.Begin();
  auto got = batched.GetMany(oids);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(batched.Commit().ok());

  // Same objects, same (input) order, duplicates preserved.
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i].oid, expected[i].oid);
    EXPECT_EQ((*got)[i].orefs, expected[i].orefs);
    EXPECT_EQ((*got)[i].backrefs, expected[i].backrefs);
  }
  EXPECT_EQ(db_.lock_manager()->locked_object_count(), 0u);
}

TEST_F(SessionTest, GetManyMatchesSingleGetsUnderMvcc) {
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());
  const std::vector<Oid> oids = {source_, target1_, target2_};

  auto session = db_.OpenSession();
  auto reader = session.Begin(TxnMode::kSnapshotRead);
  ASSERT_TRUE(reader.read_only());

  // A writer commits a change *after* the reader pinned its snapshot.
  auto writer = session.Begin();
  ASSERT_TRUE(writer.SetReference(source_, 0, target2_).ok());
  ASSERT_TRUE(writer.Commit().ok());

  // Single gets and GetMany through the same ReadView agree — and both
  // show the pre-commit state.
  std::vector<Object> expected;
  for (Oid oid : oids) {
    auto obj = reader.Get(oid);
    ASSERT_TRUE(obj.ok());
    expected.push_back(std::move(obj).value());
  }
  auto got = reader.GetMany(oids);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i].oid, expected[i].oid);
    EXPECT_EQ((*got)[i].orefs, expected[i].orefs);
  }
  EXPECT_EQ(expected[0].orefs[0], target1_);  // Snapshot state.
  EXPECT_EQ(reader.lock_wait_nanos(), 0u);    // Never locked anything.
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(SessionTest, GetManySkipsVanishedOids) {
  auto session = db_.OpenSession();
  auto txn = session.Begin();
  const Oid dead = 999999;
  auto got = txn.GetMany(std::vector<Oid>{source_, dead, target1_});
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0].oid, source_);
  EXPECT_EQ((*got)[1].oid, target1_);
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(SessionTest, ApplyWriteBatchReportsPerOperationOutcomes) {
  auto session = db_.OpenSession();
  auto txn = session.Begin();
  auto src = txn.Get(source_);
  ASSERT_TRUE(src.ok());

  WriteBatch batch;
  batch.Put(src.value());                        // OK (rewrite in place).
  batch.SetReference(source_, 0, target1_);      // OK.
  batch.SetReference(source_, 99, target2_);     // Bad slot: per-op error.
  batch.Delete(target2_);                        // OK.
  auto applied = txn.Apply(std::move(batch));
  ASSERT_TRUE(applied.ok());
  ASSERT_EQ(applied->statuses.size(), 4u);
  EXPECT_TRUE(applied->statuses[0].ok());
  EXPECT_TRUE(applied->statuses[1].ok());
  EXPECT_TRUE(applied->statuses[2].IsInvalidArgument());
  EXPECT_TRUE(applied->statuses[3].ok());
  EXPECT_EQ(applied->applied, 3u);
  EXPECT_FALSE(applied->all_ok());
  ASSERT_TRUE(txn.Commit().ok());

  EXPECT_EQ(db_.PeekObject(source_)->orefs[0], target1_);
  EXPECT_FALSE(db_.ContainsObject(target2_));
}

TEST_F(SessionTest, ApplyWriteBatchRollsBackWithTransactionAbort) {
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());
  auto session = db_.OpenSession();
  auto txn = session.Begin();
  WriteBatch batch;
  batch.SetReference(source_, 0, target2_);
  batch.Delete(target1_);
  auto applied = txn.Apply(std::move(batch));
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->applied, 2u);
  ASSERT_TRUE(txn.Abort().ok());

  // Transaction-level atomicity undoes the whole batch.
  EXPECT_EQ(db_.PeekObject(source_)->orefs[0], target1_);
  EXPECT_TRUE(db_.ContainsObject(target1_));
}

TEST_F(SessionTest, TraverseCountsReachableObjectsEngineSide) {
  // source → target1 and source → target2; target1/target2 are leaves.
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());
  ASSERT_TRUE(db_.SetReference(source_, 1, target2_).ok());

  auto session = db_.OpenSession();
  auto txn = session.Begin();
  auto root = txn.Get(source_);
  ASSERT_TRUE(root.ok());

  TraversePolicy dfs;
  dfs.kind = TraverseKind::kDepthFirst;
  auto walked = txn.Traverse(root.value(), 2, dfs);
  ASSERT_TRUE(walked.ok());
  EXPECT_EQ(*walked, 2u);  // Both children, no grandchildren.

  TraversePolicy bfs;
  bfs.kind = TraverseKind::kBreadthFirst;
  auto broad = txn.Traverse(root.value(), 1, bfs);
  ASSERT_TRUE(broad.ok());
  EXPECT_EQ(*broad, 2u);

  // Reversed from a leaf ascends the backref.
  auto leaf = txn.Get(target1_);
  ASSERT_TRUE(leaf.ok());
  TraversePolicy up;
  up.kind = TraverseKind::kDepthFirst;
  up.reversed = true;
  auto ascended = txn.Traverse(leaf.value(), 1, up);
  ASSERT_TRUE(ascended.ok());
  EXPECT_EQ(*ascended, 1u);  // Back to source.
  ASSERT_TRUE(txn.Commit().ok());
}

TEST_F(SessionTest, LegacyBracketFiresObserverBoundariesAndAutoCloses) {
  BoundarySpy spy;
  db_.SetObserver(&spy);
  {
    auto session = db_.OpenSession();
    auto txn = session.BeginLegacy();
    EXPECT_TRUE(txn.legacy());
    ASSERT_TRUE(txn.Get(source_).ok());
    // No locks on the legacy path.
    EXPECT_EQ(db_.lock_manager()->locked_object_count(), 0u);
    // Scope exit closes the bracket without a Commit call.
  }
  EXPECT_EQ(spy.begins_, 1);
  EXPECT_EQ(spy.ends_, 1);
  EXPECT_EQ(spy.aborts_, 0);

  auto session = db_.OpenSession();
  auto txn = session.BeginLegacy();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(spy.begins_, 2);
  EXPECT_EQ(spy.ends_, 2);
  db_.SetObserver(nullptr);
}

TEST_F(SessionTest, ShardedSessionSpeaksTheSameApi) {
  ShardedDatabase sharded(TestOptions(), 2);
  sharded.SetSchema(TwoClassSchema());
  const Oid a = *sharded.CreateObject(0);   // Shard 0.
  const Oid b = *sharded.CreateObject(0);   // Shard 1.
  const Oid t = *sharded.CreateObject(1);   // Shard 0.

  auto session = sharded.OpenSession();
  auto txn = session.Begin();
  ASSERT_TRUE(txn.SetReference(a, 0, b).ok());  // Cross-shard.
  auto got = txn.GetMany(std::vector<Oid>{a, b, t});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 3u);
  EXPECT_TRUE(txn.cross_shard());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(sharded.PeekObject(a)->orefs[0], b);

  // RAII auto-abort across shards.
  {
    auto doomed = session.Begin();
    ASSERT_TRUE(doomed.SetReference(a, 1, t).ok());
  }
  EXPECT_EQ(sharded.PeekObject(a)->orefs[1], kInvalidOid);
  for (uint32_t k = 0; k < sharded.shard_count(); ++k) {
    EXPECT_EQ(sharded.shard(k)->lock_manager()->locked_object_count(), 0u);
  }
}

}  // namespace
}  // namespace ocb
