// ShardRouter and oid-partitioning tests: routing is a stable pure
// function of the oid, allocation and routing agree (every object lives
// on the shard that owns its oid), the global oid sequence stays dense at
// every shard count, and one generation seed produces the identical
// logical object graph on a single Database, a degenerate SHARDN=1
// ShardedDatabase and a SHARDN=4 ShardedDatabase.

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "ocb/generator.h"
#include "ocb/parameters.h"
#include "sharding/shard_router.h"
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

DatabaseParameters SmallDatabase() {
  DatabaseParameters params;
  params.num_classes = 6;
  params.max_nref = 3;
  params.base_size = 30;
  params.num_objects = 300;
  params.seed = 77;
  return params;
}

TEST(ShardRouterTest, RoutingIsStableAndMatchesAllocation) {
  for (uint32_t n : {1u, 2u, 3u, 4u, 8u}) {
    ShardRouter router(n);
    ASSERT_EQ(router.shard_count(), n);
    ASSERT_EQ(router.OidStride(), n);
    for (uint32_t k = 0; k < n; ++k) {
      // Every member of shard k's allocation progression routes to k.
      Oid oid = router.FirstOidFor(k);
      for (int step = 0; step < 50; ++step, oid += router.OidStride()) {
        ASSERT_EQ(router.ShardOf(oid), k)
            << "oid " << oid << " with " << n << " shards";
        // Stability: recomputing gives the same answer.
        ASSERT_EQ(router.ShardOf(oid), router.ShardOf(oid));
      }
    }
    // The progressions tile the oid space: 1..200 all route somewhere.
    for (Oid oid = 1; oid <= 200; ++oid) {
      ASSERT_LT(router.ShardOf(oid), n);
    }
  }
}

TEST(ShardRouterTest, CreatedObjectsLiveOnTheirRoutedShard) {
  ShardedDatabase db(TestOptions(), 4);
  db.SetSchema(TwoClassSchema());
  for (int i = 0; i < 40; ++i) {
    auto oid = db.CreateObject(i % 2);
    ASSERT_TRUE(oid.ok());
    const uint32_t owner = db.router().ShardOf(*oid);
    EXPECT_TRUE(db.shard(owner)->ContainsObject(*oid));
    for (uint32_t k = 0; k < db.shard_count(); ++k) {
      if (k != owner) {
        EXPECT_FALSE(db.shard(k)->ContainsObject(*oid));
      }
    }
  }
}

TEST(ShardRouterTest, GlobalOidSequenceStaysDense) {
  for (uint32_t n : {1u, 2u, 3u, 4u}) {
    ShardedDatabase db(TestOptions(), n);
    db.SetSchema(TwoClassSchema());
    // Round-robin creation over strided per-shard progressions must give
    // the dense global sequence 1, 2, 3, … for every shard count.
    for (Oid expected = 1; expected <= 24; ++expected) {
      auto oid = db.CreateObject(0);
      ASSERT_TRUE(oid.ok());
      EXPECT_EQ(*oid, expected) << "with " << n << " shards";
    }
  }
}

TEST(ShardRouterTest, GenerationIsLogicallyIdenticalAcrossShardCounts) {
  const DatabaseParameters params = SmallDatabase();

  Database single(TestOptions());
  ASSERT_TRUE(GenerateDatabase(params, &single).ok());

  ShardedDatabase degenerate(TestOptions(), 1);
  ASSERT_TRUE(GenerateDatabase(params, &degenerate).ok());

  ShardedDatabase sharded(TestOptions(), 4);
  ASSERT_TRUE(GenerateDatabase(params, &sharded).ok());

  const std::vector<Oid> oids = single.LiveOidsSnapshot();
  ASSERT_EQ(degenerate.LiveOidsSnapshot(), oids);
  ASSERT_EQ(sharded.LiveOidsSnapshot(), oids);
  for (Oid oid : oids) {
    auto a = single.PeekObject(oid);
    auto b = degenerate.PeekObject(oid);
    auto c = sharded.PeekObject(oid);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(a->class_id, b->class_id);
    EXPECT_EQ(a->class_id, c->class_id);
    EXPECT_EQ(a->orefs, b->orefs);
    EXPECT_EQ(a->orefs, c->orefs);
    EXPECT_EQ(a->backrefs, b->backrefs);
    EXPECT_EQ(a->backrefs, c->backrefs);
  }
}

// The sharded listing merges the shards' ascending lists: after deletes
// on every shard and fresh creates it still equals the single store's.
TEST(ShardRouterTest, LiveOidsMatchSingleStoreAfterDeletesOnEveryShard) {
  const DatabaseParameters params = SmallDatabase();
  Database single(TestOptions());
  ASSERT_TRUE(GenerateDatabase(params, &single).ok());
  ShardedDatabase sharded(TestOptions(), 4);
  ASSERT_TRUE(GenerateDatabase(params, &sharded).ok());

  // Every 7th oid: the deleted oids cover all four residues mod 4.
  std::vector<bool> shard_hit(4, false);
  for (Oid oid = 1; oid <= params.num_objects; oid += 7) {
    ASSERT_TRUE(single.DeleteObject(oid).ok()) << "oid " << oid;
    ASSERT_TRUE(sharded.DeleteObject(oid).ok()) << "oid " << oid;
    shard_hit[sharded.router().ShardOf(oid)] = true;
  }
  EXPECT_EQ(shard_hit, std::vector<bool>(4, true));
  for (int i = 0; i < 8; ++i) {
    auto a = single.CreateObject(i % 2);
    auto b = sharded.CreateObject(i % 2);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
  const std::vector<Oid> oids = single.LiveOidsSnapshot();
  EXPECT_EQ(oids.size(), params.num_objects - 43 + 8);
  EXPECT_EQ(sharded.LiveOidsSnapshot(), oids);
}

TEST(ShardRouterTest, ShardedSnapshotRoundTrips) {
  const DatabaseParameters params = SmallDatabase();
  const std::string path = "sharded_snapshot_test.ocbsnap";

  ShardedDatabase original(TestOptions(), 2);
  ASSERT_TRUE(GenerateDatabase(params, &original).ok());
  ASSERT_TRUE(SaveShardedSnapshot(&original, path).ok());

  ShardedDatabase reloaded(TestOptions(), 2);
  ASSERT_TRUE(LoadShardedSnapshot(&reloaded, path).ok());
  for (uint32_t k = 0; k < 2; ++k) {
    std::remove((path + ".shard" + std::to_string(k)).c_str());
  }

  ASSERT_EQ(reloaded.object_count(), original.object_count());
  ASSERT_EQ(reloaded.LiveOidsSnapshot(), original.LiveOidsSnapshot());
  for (Oid oid : original.LiveOidsSnapshot()) {
    auto a = original.PeekObject(oid);
    auto b = reloaded.PeekObject(oid);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->orefs, b->orefs);
    EXPECT_EQ(a->backrefs, b->backrefs);
  }
  // Post-load creation continues the per-shard progressions without
  // colliding with loaded oids.
  auto fresh = reloaded.CreateObject(0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(original.ContainsObject(*fresh));
  EXPECT_TRUE(reloaded.ContainsObject(*fresh));
}

}  // namespace
}  // namespace ocb
