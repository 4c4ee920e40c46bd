// TxnMode: every mode begins, runs and commits on both engines. Also
// pins the per-mode operation surface: SI/OCC refuse SetReference and
// Delete with typed NotSupported (their symmetric backref choreography
// needs 2PL's eager footprint), and kSnapshotRead refuses every write
// with InvalidArgument — never silent no-ops.

#include <gtest/gtest.h>

#include "engine/session.h"
#include "oodb/database.h"
#include "sharding/sharded_database.h"

namespace ocb {
namespace {

constexpr TxnMode kAllModes[] = {TxnMode::kSnapshotRead, TxnMode::k2PL,
                                 TxnMode::kSI, TxnMode::kOCC};

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 32;
  return opts;
}

Schema OneClassSchema() {
  Schema schema;
  schema.SetRefTypes(Schema::DefaultTraits(3));
  ClassDescriptor a;
  a.id = 0;
  a.maxnref = 3;
  a.basesize = 40;
  a.instance_size = 40;
  a.tref = {2, 2, 2};
  a.cref = {1, 1, 0};
  Schema out = std::move(schema);
  EXPECT_TRUE(out.AddClass(std::move(a)).ok());
  return out;
}

// Begins \p mode on \p db, reads (and unless a reader, rewrites) \p oid,
// and commits.
template <typename DB>
void BeginRunCommit(DB* db, TxnMode mode, Oid oid) {
  auto txn = db->OpenSession().Begin(mode);
  ASSERT_TRUE(txn.valid());
  EXPECT_EQ(txn.mode(), mode);
  EXPECT_EQ(txn.read_only(), mode == TxnMode::kSnapshotRead);
  auto obj = txn.Get(oid);
  ASSERT_TRUE(obj.ok()) << TxnModeToString(mode) << ": "
                        << obj.status().ToString();
  if (mode != TxnMode::kSnapshotRead) {
    obj->orefs[0] = oid;  // Self-reference: always type-compatible.
    ASSERT_TRUE(txn.Put(obj.value()).ok()) << TxnModeToString(mode);
  }
  EXPECT_TRUE(txn.Commit().ok()) << TxnModeToString(mode);
}

TEST(TxnModeTest, EveryModeBeginsAndCommitsOnDatabase) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  const Oid oid = *db.CreateObject(0);
  for (TxnMode mode : kAllModes) BeginRunCommit(&db, mode, oid);
  EXPECT_EQ(db.lock_manager()->locked_object_count(), 0u);
  EXPECT_EQ(db.read_views()->open_count(), 0u);
}

TEST(TxnModeTest, EveryModeBeginsAndCommitsOnShardedDatabase) {
  ShardedDatabase db(TestOptions(), 4);
  db.SetSchema(OneClassSchema());
  const Oid oid = *db.CreateObject(0);
  for (TxnMode mode : kAllModes) BeginRunCommit(&db, mode, oid);
}

TEST(TxnModeTest, OptimisticModesRefuseReferenceChoreography) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  const Oid oid = *db.CreateObject(0);
  ShardedDatabase sharded(TestOptions(), 4);
  sharded.SetSchema(OneClassSchema());
  const Oid sharded_oid = *sharded.CreateObject(0);

  for (TxnMode mode : {TxnMode::kSI, TxnMode::kOCC}) {
    auto txn = db.OpenSession().Begin(mode);
    Status set = txn.SetReference(oid, 0, oid);
    EXPECT_TRUE(set.IsNotSupported()) << set.ToString();
    Status del = txn.Delete(oid);
    EXPECT_TRUE(del.IsNotSupported()) << del.ToString();
    // The refusal is advisory, not fatal: the transaction still commits
    // through the supported surface.
    EXPECT_TRUE(txn.Commit().ok());

    auto stxn = sharded.OpenSession().Begin(mode);
    set = stxn.SetReference(sharded_oid, 0, sharded_oid);
    EXPECT_TRUE(set.IsNotSupported()) << set.ToString();
    del = stxn.Delete(sharded_oid);
    EXPECT_TRUE(del.IsNotSupported()) << del.ToString();
    EXPECT_TRUE(stxn.Commit().ok());
  }
}

TEST(TxnModeTest, SnapshotReadRefusesWrites) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  const Oid oid = *db.CreateObject(0);

  auto txn = db.OpenSession().Begin(TxnMode::kSnapshotRead);
  auto obj = txn.Get(oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(txn.Put(obj.value()).IsInvalidArgument());
  EXPECT_TRUE(txn.SetReference(oid, 0, oid).IsInvalidArgument());
  EXPECT_TRUE(txn.Delete(oid).IsInvalidArgument());
  EXPECT_TRUE(txn.Create(0).status().IsInvalidArgument());
  EXPECT_TRUE(txn.Apply(WriteBatch()).status().IsInvalidArgument());
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db.object_count(), 1u);
}

}  // namespace
}  // namespace ocb
