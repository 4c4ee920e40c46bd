// ColdRestart contract tests: restarting the cache while transactions
// are in flight must be a typed refusal (mirroring SaveSnapshot), never
// undefined behavior — on the single store and on every shard of a
// sharded deployment.

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

TEST(ColdRestartTest, RefusesWhileWriterHoldsLocks) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  auto session = db.OpenSession();
  auto txn = session.Begin();
  ASSERT_TRUE(txn.Create(0).ok());  // X lock held until commit.
  EXPECT_TRUE(db.ColdRestart().IsInvalidArgument());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(db.ColdRestart().ok());
}

TEST(ColdRestartTest, RefusesWhileSnapshotReaderIsPinned) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  ASSERT_TRUE(db.CreateObject(0).ok());
  auto session = db.OpenSession();
  auto reader = session.Begin(TxnMode::kSnapshotRead);
  ASSERT_TRUE(reader.read_only());  // MVCC ReadView pinned.
  EXPECT_TRUE(db.ColdRestart().IsInvalidArgument());
  ASSERT_TRUE(reader.Commit().ok());
  EXPECT_TRUE(db.ColdRestart().ok());
}

TEST(ColdRestartTest, ShardedRefusesBeforeRestartingAnyShard) {
  // The sharded form must refuse UP FRONT: with only per-shard refusal a
  // busy shard k would leave shards 0..k-1 already cold — half the
  // deployment restarted, half not.
  ShardedDatabase db(TestOptions(), 4);
  db.SetSchema(OneClassSchema());
  auto session = db.OpenSession();
  auto txn = session.Begin();
  ASSERT_TRUE(txn.Create(0).ok());
  ASSERT_TRUE(txn.Create(0).ok());  // Second shard joins (round-robin).
  const Status st = db.ColdRestart();
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("shard"), std::string::npos) << st.message();
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_TRUE(db.ColdRestart().ok());
}

TEST(ColdRestartTest, ShardedRefusesWhileGlobalSnapshotIsOpen) {
  ShardedDatabase db(TestOptions(), 4);
  db.SetSchema(OneClassSchema());
  ASSERT_TRUE(db.CreateObject(0).ok());
  auto session = db.OpenSession();
  auto reader = session.Begin(TxnMode::kSnapshotRead);  // ReadView pinned on EVERY shard.
  ASSERT_TRUE(reader.read_only());
  EXPECT_TRUE(db.ColdRestart().IsInvalidArgument());
  ASSERT_TRUE(reader.Commit().ok());
  EXPECT_TRUE(db.ColdRestart().ok());
}

}  // namespace
}  // namespace ocb
