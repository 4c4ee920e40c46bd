// Regression tests for torn-extent visibility: a snapshot reader's
// extent walk (what kScan iterates) must not include class members
// created AFTER the reader's snapshot instant — extents themselves are
// not versioned, so membership is filtered through the version store's
// creation versions at the view's timestamp.

#include <gtest/gtest.h>

#include "engine/session.h"
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

Schema OneClassSchema() {
  Schema schema;
  schema.SetRefTypes(Schema::DefaultTraits(2));
  ClassDescriptor a;
  a.id = 0;
  a.maxnref = 2;
  a.basesize = 24;
  a.instance_size = 24;
  a.tref = {1, 1};
  a.cref = {0, 0};
  Schema out = std::move(schema);
  EXPECT_TRUE(out.AddClass(std::move(a)).ok());
  return out;
}

TEST(ScanVisibilityTest, SnapshotReaderDoesNotSeeMembersBornLater) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  const Oid old1 = *db.CreateObject(0);
  const Oid old2 = *db.CreateObject(0);

  auto session = db.OpenSession();
  auto reader = session.Begin(TxnMode::kSnapshotRead);
  ASSERT_TRUE(reader.read_only());

  // A writer commits a NEW class member while the reader is pinned.
  auto writer = session.Begin();
  auto fresh = writer.Create(0);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(writer.Commit().ok());

  // Current membership includes the newborn; the reader's filtered
  // extent — the membership kScan walks — must not.
  EXPECT_EQ(db.ExtentSnapshot(0), (std::vector<Oid>{old1, old2, *fresh}));
  EXPECT_EQ(reader.ExtentSnapshot(0), (std::vector<Oid>{old1, old2}));
  ASSERT_TRUE(reader.Commit().ok());

  // A view opened after the commit sees all three.
  auto later = session.Begin(TxnMode::kSnapshotRead);
  EXPECT_EQ(later.ExtentSnapshot(0).size(), 3u);
  ASSERT_TRUE(later.Commit().ok());
}

TEST(ScanVisibilityTest, LockingTransactionsSeeCurrentMembership) {
  // Only snapshot readers filter; a read-write (locking) transaction
  // reads current state and keeps the unfiltered extent.
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  const Oid old1 = *db.CreateObject(0);

  auto session = db.OpenSession();
  auto rw = session.Begin();
  auto writer = session.Begin();
  auto fresh = writer.Create(0);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(rw.ExtentSnapshot(0), (std::vector<Oid>{old1, *fresh}));
  ASSERT_TRUE(rw.Commit().ok());
}

TEST(ScanVisibilityTest, ShardedSnapshotReaderDoesNotSeeMembersBornLater) {
  // Same invariant across shards: the global snapshot point filters each
  // shard's membership through that shard's version store.
  ShardedDatabase db(TestOptions(), 4);
  db.SetSchema(OneClassSchema());
  std::vector<Oid> old_members;
  for (int i = 0; i < 4; ++i) old_members.push_back(*db.CreateObject(0));
  std::sort(old_members.begin(), old_members.end());

  auto session = db.OpenSession();
  auto reader = session.Begin(TxnMode::kSnapshotRead);
  ASSERT_TRUE(reader.read_only());

  auto writer = session.Begin();
  ASSERT_TRUE(writer.Create(0).ok());
  ASSERT_TRUE(writer.Create(0).ok());  // Two shards gain newborns.
  ASSERT_TRUE(writer.Commit().ok());

  EXPECT_EQ(db.ExtentSnapshot(0).size(), 6u);
  EXPECT_EQ(reader.ExtentSnapshot(0), old_members);
  ASSERT_TRUE(reader.Commit().ok());
}

}  // namespace
}  // namespace ocb
