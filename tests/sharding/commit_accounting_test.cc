// Commit-log force accounting on the sharded deployment: with the real
// WAL on, a cross-shard (2PC) commit issues exactly one coordinator-side
// fsync — the marker force that is its on-disk commit point.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "engine/session.h"
#include "sharding/cross_shard_coordinator.h"
#include "sharding/sharded_database.h"
#include "util/format.h"
#include "wal/wal_writer.h"

namespace ocb {
namespace {

constexpr uint32_t kShards = 4;

StorageOptions AccountingOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 64;
  opts.read_latency_nanos = 0;
  opts.write_latency_nanos = 0;
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

// Commits one transaction creating \p creates objects (round-robin across
// shards, so creates >= 2 makes it a cross-shard 2PC commit).
void CommitCreates(ShardedDatabase* db, int creates) {
  auto session = db->OpenSession();
  auto txn = session.Begin();
  for (int i = 0; i < creates; ++i) ASSERT_TRUE(txn.Create(0).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(CommitAccountingTest, RealWalCrossShardBatchForcesCoordinatorOnce) {
  // A cross-shard batch's coordinator log sees exactly ONE fsync (the
  // marker force before the ack); participant shard logs are forced
  // separately.
  const std::string wal =
      testing::TempDir() + "/ocb_commit_accounting_test.wal";
  StorageOptions opts = AccountingOptions();
  opts.wal_path = wal;
  {
    ShardedDatabase db(opts, kShards);
    db.SetSchema(OneClassSchema());
    ASSERT_TRUE(db.wal_enabled());
    for (int i = 0; i < 5; ++i) CommitCreates(&db, 2);
    EXPECT_EQ(db.coordinator()->coord_wal()->forces(), 5u);
  }
  std::remove((wal + ".coord").c_str());
  for (uint32_t k = 0; k < kShards; ++k) {
    std::remove((wal + Format(".shard%u", k)).c_str());
  }
}

}  // namespace
}  // namespace ocb
