// Multi-client OCB runs over real threads: RunMultiClient at CLIENTN=8 on
// a write-heavy mix, over a Database and a 4-shard ShardedDatabase, with
// locking readers and with snapshot readers. Afterwards a snapshot walk
// checks referential integrity: every non-null oref targets a live
// object, and oref/backref multiplicities balance per (source, target)
// pair. Carries the `concurrency` label, so the sanitizer legs race the
// whole multi-client path.

#include <gtest/gtest.h>

#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "ocb/client.h"
#include "ocb/generator.h"
#include "ocb/presets.h"
#include "oodb/database.h"
#include "sharding/sharded_database.h"

namespace ocb {
namespace {

constexpr uint32_t kClients = 8;
constexpr uint64_t kColdTxns = 10;
constexpr uint64_t kHotTxns = 60;

uint64_t LockedObjects(Database* db) {
  return db->lock_manager()->locked_object_count();
}

uint64_t LockedObjects(ShardedDatabase* db) {
  uint64_t n = 0;
  for (uint32_t k = 0; k < db->shard_count(); ++k) {
    n += db->shard(k)->lock_manager()->locked_object_count();
  }
  return n;
}

// Walks every live object in one snapshot and checks the reference graph.
template <typename DB>
void ExpectReferentialIntegrity(DB* db) {
  const std::vector<Oid> live = db->LiveOidsSnapshot();
  ASSERT_FALSE(live.empty());
  const std::unordered_set<Oid> live_set(live.begin(), live.end());
  std::map<std::pair<Oid, Oid>, int> balance;  // orefs minus backrefs.
  auto session = db->OpenSession();
  auto txn = session.Begin(TxnMode::kSnapshotRead);
  for (Oid oid : live) {
    auto obj = txn.Get(oid);
    ASSERT_TRUE(obj.ok()) << "oid " << oid << ": " << obj.status().ToString();
    for (Oid target : obj->orefs) {
      if (target == kInvalidOid) continue;
      EXPECT_TRUE(live_set.count(target))
          << "oid " << oid << " references dead oid " << target;
      ++balance[{oid, target}];
    }
    for (Oid source : obj->backrefs) --balance[{source, oid}];
  }
  ASSERT_TRUE(txn.Commit().ok());
  for (const auto& [edge, count] : balance) {
    EXPECT_EQ(count, 0) << "oref " << edge.first << " -> " << edge.second
                        << " and its backrefs differ by " << count;
  }
}

template <typename DB>
void RunWriteHeavyStorm(DB* db, bool snapshot_readers) {
  OcbPreset preset = presets::Default();
  preset.database.num_objects = 200;
  preset.database.seed = 29;
  ASSERT_TRUE(GenerateDatabase(preset.database, db).ok());

  WorkloadParameters& w = preset.workload;
  w.client_count = kClients;
  w.cold_transactions = kColdTxns;
  w.hot_transactions = kHotTxns;
  w.seed = 41;
  // Write-heavy: updates, reference-wiring inserts and neighborhood-
  // locking deletes hold X locks long enough for clients to collide.
  w.p_set = 0.15;
  w.p_simple = 0.15;
  w.p_hierarchy = 0.10;
  w.p_stochastic = 0.10;
  w.p_update = 0.30;
  w.p_insert = 0.12;
  w.p_delete = 0.08;
  w.mvcc_snapshot_reads = snapshot_readers;
  auto report = RunMultiClient(db, w);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const WorkloadMetrics& m = report->merged;
  const uint64_t committed =
      m.cold.global.transactions + m.warm.global.transactions;
  const uint64_t aborts = m.cold.aborts + m.warm.aborts;
  EXPECT_GT(committed, 0u);
  // A transaction whose root a concurrent delete consumed is skipped, so
  // attempts can fall short of the budget but never exceed it.
  EXPECT_LE(committed + aborts, kClients * (kColdTxns + kHotTxns));
  const uint64_t read_only_commits =
      m.cold.read_only_commits + m.warm.read_only_commits;
  if (snapshot_readers) {
    EXPECT_GT(read_only_commits, 0u);
  } else {
    EXPECT_EQ(read_only_commits, 0u);
  }
  EXPECT_EQ(LockedObjects(db), 0u);
  ExpectReferentialIntegrity(db);
}

TEST(MultiClientConcurrencyTest, DatabaseLockingReaders) {
  Database db{StorageOptions{}};
  RunWriteHeavyStorm(&db, /*snapshot_readers=*/false);
}

TEST(MultiClientConcurrencyTest, DatabaseSnapshotReaders) {
  Database db{StorageOptions{}};
  RunWriteHeavyStorm(&db, /*snapshot_readers=*/true);
}

// The sharded runs must also commit cross-shard (2PC) transactions.
void RunShardedStorm(bool snapshot_readers) {
  ShardedDatabase db(StorageOptions{}, 4);
  RunWriteHeavyStorm(&db, snapshot_readers);
  EXPECT_GT(db.coordinator()->stats().cross_shard_commits, 0u);
}

TEST(MultiClientConcurrencyTest, ShardedLockingReaders) {
  RunShardedStorm(/*snapshot_readers=*/false);
}

TEST(MultiClientConcurrencyTest, ShardedSnapshotReaders) {
  RunShardedStorm(/*snapshot_readers=*/true);
}

}  // namespace
}  // namespace ocb
