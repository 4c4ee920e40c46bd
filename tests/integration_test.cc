// Cross-module integration tests: full generate → workload → recluster →
// re-run pipelines exercising every layer together, plus cross-policy and
// genericity sanity checks.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "clustering/dfs_placement.h"
#include "clustering/dstc.h"
#include "clustering/greedy_graph.h"
#include "engine/session.h"
#include "legacy/club.h"
#include "legacy/oo1.h"
#include "ocb/experiment.h"
#include "ocb/generator.h"
#include "ocb/protocol.h"
#include "sharding/sharded_database.h"

namespace ocb {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.preset = presets::Default();
  config.preset.database.num_objects = 1200;
  config.preset.database.num_classes = 8;
  config.preset.database.max_nref = 5;
  config.preset.database.seed = 21;
  config.preset.workload.cold_transactions = 50;
  config.preset.workload.hot_transactions = 120;
  config.preset.workload.set_depth = 2;
  config.preset.workload.simple_depth = 2;
  config.preset.workload.hierarchy_depth = 3;
  config.preset.workload.stochastic_depth = 8;
  config.preset.workload.seed = 23;
  config.storage.buffer_pool_pages = 16;
  return config;
}

TEST(IntegrationTest, EveryPolicyCompletesTheFullPipeline) {
  Dstc dstc;
  GreedyGraphPartitioning greedy;
  DfsPlacement dfs;
  NoClustering none;
  std::vector<ClusteringPolicy*> policies = {&dstc, &greedy, &dfs, &none};
  for (ClusteringPolicy* policy : policies) {
    auto result = RunBeforeAfterExperiment(SmallConfig(), policy);
    ASSERT_TRUE(result.ok()) << policy->name() << ": "
                             << result.status().ToString();
    EXPECT_GT(result->before.merged.warm.global.transactions, 0u)
        << policy->name();
    EXPECT_GT(result->ios_before(), 0.0) << policy->name();
    EXPECT_GT(result->ios_after(), 0.0) << policy->name();
  }
}

TEST(IntegrationTest, DatabaseSurvivesReorganizationIntact) {
  ExperimentConfig config = SmallConfig();
  Database db(config.storage);
  ASSERT_TRUE(GenerateDatabase(config.preset.database, &db).ok());

  // Snapshot the logical graph.
  struct Snapshot {
    ClassId class_id;
    std::vector<Oid> orefs;
  };
  std::map<Oid, Snapshot> before;
  for (Oid oid : db.object_store()->LiveOids()) {
    auto obj = db.PeekObject(oid);
    ASSERT_TRUE(obj.ok());
    before[oid] = {obj->class_id, obj->orefs};
  }

  Dstc dstc;
  auto result = RunBeforeAfterOnDatabase(&db, config.preset.workload, &dstc);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(dstc.stats().reorganizations, 1u);

  // The physical layout moved; the logical graph must be identical.
  for (const auto& [oid, snapshot] : before) {
    auto obj = db.PeekObject(oid);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->class_id, snapshot.class_id);
    EXPECT_EQ(obj->orefs, snapshot.orefs) << "oid " << oid;
  }
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  // Same seeds, same config => identical headline numbers.
  Dstc dstc1, dstc2;
  auto r1 = RunBeforeAfterExperiment(SmallConfig(), &dstc1);
  auto r2 = RunBeforeAfterExperiment(SmallConfig(), &dstc2);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->ios_before(), r2->ios_before());
  EXPECT_DOUBLE_EQ(r1->ios_after(), r2->ios_after());
  EXPECT_EQ(r1->clustering_overhead_io, r2->clustering_overhead_io);
}

TEST(IntegrationTest, OcbAsClubTracksNativeClubShape) {
  // The paper's Table 4 argument in miniature: OCB parameterized per
  // Table 3 must show the same qualitative behaviour (a clustering gain
  // > 1) as the native DSTC-CluB implementation.
  StorageOptions storage;
  storage.page_size = 1024;
  storage.buffer_pool_pages = 16;

  // Native DSTC-CluB.
  ClubOptions club;
  club.oo1.num_parts = 1000;
  club.oo1.ref_zone = 100;
  club.traversal_depth = 4;
  club.warmup_traversals = 60;
  club.measured_traversals = 25;
  Database club_db(storage);
  DstcOptions dstc_options;
  dstc_options.observation_period_transactions = 30;
  Dstc club_dstc(dstc_options);
  auto club_result = RunDstcClub(club, &club_db, &club_dstc);
  ASSERT_TRUE(club_result.ok());

  // OCB tuned as CluB.
  ExperimentConfig ocb_config;
  ocb_config.preset = presets::DstcClubApprox(/*ref_zone=*/100);
  ocb_config.preset.database.num_objects = 1000;
  ocb_config.preset.workload.cold_transactions = 60;
  ocb_config.preset.workload.hot_transactions = 100;
  ocb_config.preset.workload.simple_depth = 4;
  ocb_config.storage = storage;
  Dstc ocb_dstc(dstc_options);
  auto ocb_result = RunBeforeAfterExperiment(ocb_config, &ocb_dstc);
  ASSERT_TRUE(ocb_result.ok());

  EXPECT_GT(club_result->gain_factor(), 1.0);
  EXPECT_GT(ocb_result->gain_factor(), 1.0);
}

TEST(IntegrationTest, BufferSizeSweepIsMonotoneInMisses) {
  // More buffer => fewer (or equal) warm-run transaction I/Os.
  double previous = 1e100;
  for (size_t frames : {8u, 32u, 128u}) {
    ExperimentConfig config = SmallConfig();
    config.storage.buffer_pool_pages = frames;
    Database db(config.storage);
    ASSERT_TRUE(GenerateDatabase(config.preset.database, &db).ok());
    ASSERT_TRUE(db.ColdRestart().ok());
    ProtocolRunner runner(&db, config.preset.workload);
    auto metrics = runner.Run();
    ASSERT_TRUE(metrics.ok());
    const double ios = metrics->warm.mean_ios_per_transaction();
    EXPECT_LE(ios, previous * 1.05 + 1e-9) << frames << " frames";
    previous = ios;
  }
}

// The exact simulated outcome of one before/after experiment: the paper's
// headline I/O figures plus the totals they are derived from.
struct SimulatedOutcome {
  double ios_before = 0.0;
  double ios_after = 0.0;
  uint64_t clustering_overhead_io = 0;
  uint64_t transaction_reads = 0;   ///< Cold + warm, before + after.
  uint64_t transaction_writes = 0;  ///< Idem.
  uint64_t warm_response_nanos_before = 0;
  uint64_t warm_response_nanos_after = 0;
};

SimulatedOutcome Summarize(const BeforeAfterResult& result) {
  SimulatedOutcome out;
  out.ios_before = result.ios_before();
  out.ios_after = result.ios_after();
  out.clustering_overhead_io = result.clustering_overhead_io;
  for (const MultiClientReport* run : {&result.before, &result.after}) {
    for (const PhaseMetrics* phase : {&run->merged.cold, &run->merged.warm}) {
      out.transaction_reads += phase->transaction_io_reads;
      out.transaction_writes += phase->transaction_io_writes;
    }
  }
  // The histogram keeps the exact integer sum; mean * count recovers it.
  auto warm_sum = [](const MultiClientReport& run) {
    const Histogram& h = run.merged.warm.global.response_histogram;
    return static_cast<uint64_t>(
        std::llround(h.mean() * static_cast<double>(h.count())));
  };
  out.warm_response_nanos_before = warm_sum(result.before);
  out.warm_response_nanos_after = warm_sum(result.after);
  return out;
}

void ExpectOutcome(const SimulatedOutcome& got,
                   const SimulatedOutcome& want) {
  EXPECT_EQ(got.ios_before, want.ios_before);
  EXPECT_EQ(got.ios_after, want.ios_after);
  EXPECT_EQ(got.clustering_overhead_io, want.clustering_overhead_io);
  EXPECT_EQ(got.transaction_reads, want.transaction_reads);
  EXPECT_EQ(got.transaction_writes, want.transaction_writes);
  EXPECT_EQ(got.warm_response_nanos_before, want.warm_response_nanos_before);
  EXPECT_EQ(got.warm_response_nanos_after, want.warm_response_nanos_after);
}

// I/Os and simulated response time per transaction are OCB's headline
// metrics (paper Tables 4 and 5). A change to the page-I/O path must leave
// them bit-identical, so two small single-client experiments pin them.
// Pages are read on demand, so every miss is one read and, in one client,
// adds one full device latency to the response time:
//   * the Table 2 read mix on the legacy path under DSTC, through a
//     16-frame pool, before and after reclustering;
//   * the generic read/write mix under 2PL with locking readers and no
//     clustering, whose misses also evict and write back dirty pages.
TEST(IntegrationTest, SimulatedIoIsPinned) {
  {
    Dstc dstc;
    auto result = RunBeforeAfterExperiment(SmallConfig(), &dstc);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GE(dstc.stats().reorganizations, 1u);
    SimulatedOutcome want;
    want.ios_before = 11.641666666666662;
    want.ios_after = 9.6666666666666643;
    want.clustering_overhead_io = 843;
    want.transaction_reads = 3315;
    want.transaction_writes = 0;
    want.warm_response_nanos_before = 13'970'000'000;
    want.warm_response_nanos_after = 11'600'000'000;
    ExpectOutcome(Summarize(*result), want);
  }
  {
    ExperimentConfig config = SmallConfig();
    WorkloadParameters& w = config.preset.workload;
    w.p_set = 0.15;
    w.p_simple = 0.15;
    w.p_hierarchy = 0.10;
    w.p_stochastic = 0.10;
    w.p_update = 0.30;
    w.p_insert = 0.12;
    w.p_delete = 0.08;
    w.transactional = true;
    w.mvcc_snapshot_reads = false;
    NoClustering none;
    auto result = RunBeforeAfterExperiment(config, &none);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SimulatedOutcome want;
    want.ios_before = 7.4916666666666689;
    want.ios_after = 7.591666666666665;
    want.clustering_overhead_io = 0;
    want.transaction_reads = 2437;
    want.transaction_writes = 597;
    want.warm_response_nanos_before = 11'310'000'000;
    want.warm_response_nanos_after = 11'340'000'000;
    ExpectOutcome(Summarize(*result), want);
  }
}

// The page reads and simulated time one transaction is charged.
struct ReadCharge {
  uint64_t reads = 0;
  uint64_t sim_nanos = 0;
};

// Cold-restarts \p db, then reads \p root, walks BFS from it (depth 3)
// and reads \p batch in one transaction of \p mode (a legacy bracket when
// \p legacy), and returns what that work was charged before Commit.
template <typename DB>
ReadCharge ChargeOfOneTransaction(DB* db, bool legacy, TxnMode mode,
                                  Oid root, std::span<const Oid> batch) {
  EXPECT_TRUE(db->ColdRestart().ok());
  ScopedEngineIoScope<DB> scope(db, IoScope::kTransaction);
  const uint64_t reads_before =
      db->IoCountersFor(IoScope::kTransaction).reads.load();
  const uint64_t nanos_before = db->SimNowNanos();
  auto session = db->OpenSession();
  auto txn = legacy ? session.BeginLegacy() : session.Begin(mode);
  auto root_object = txn.Get(root);
  EXPECT_TRUE(root_object.ok());
  if (!root_object.ok()) return {};
  TraversePolicy bfs;
  bfs.kind = TraverseKind::kBreadthFirst;
  auto walked = txn.Traverse(*root_object, /*depth=*/3, bfs);
  EXPECT_TRUE(walked.ok());
  auto objects = txn.GetMany(batch);
  EXPECT_TRUE(objects.ok());
  EXPECT_EQ(objects.ok() ? objects->size() : 0, batch.size());
  ReadCharge charge;
  charge.reads =
      db->IoCountersFor(IoScope::kTransaction).reads.load() - reads_before;
  charge.sim_nanos = db->SimNowNanos() - nanos_before;
  EXPECT_TRUE(txn.Commit().ok());
  return charge;
}

// One read rule: pages are read on demand whatever the TxnMode and
// whichever engine runs the transaction, so the same work reads the same
// pages and is charged the same simulated time in all ten runs.
TEST(IntegrationTest, EveryModeAndEngineIsChargedTheSameReads) {
  const ExperimentConfig config = SmallConfig();  // A 16-frame pool.
  Database db(config.storage);
  ShardedDatabase sharded(config.storage, /*shard_count=*/1);
  ASSERT_TRUE(GenerateDatabase(config.preset.database, &db).ok());
  ASSERT_TRUE(GenerateDatabase(config.preset.database, &sharded).ok());
  const std::vector<Oid> live = db.LiveOidsSnapshot();
  ASSERT_EQ(sharded.LiveOidsSnapshot(), live);
  const Oid root = live[live.size() / 3];
  std::vector<Oid> batch;
  for (size_t i = 0; i < 20; ++i) {
    batch.push_back(live[(i * 59 + 7) % live.size()]);
  }

  struct Run {
    bool legacy;
    TxnMode mode;
  };
  const Run runs[] = {{true, TxnMode::k2PL},
                      {false, TxnMode::k2PL},
                      {false, TxnMode::kOCC},
                      {false, TxnMode::kSnapshotRead},
                      {false, TxnMode::kSI}};
  std::vector<ReadCharge> charges;
  for (const Run& run : runs) {
    charges.push_back(
        ChargeOfOneTransaction(&db, run.legacy, run.mode, root, batch));
    charges.push_back(
        ChargeOfOneTransaction(&sharded, run.legacy, run.mode, root, batch));
  }
  ASSERT_GT(charges[0].reads, 0u);
  // One client's reads never overlap: each adds its full latency.
  EXPECT_EQ(charges[0].sim_nanos,
            charges[0].reads * config.storage.read_latency_nanos);
  for (size_t i = 1; i < charges.size(); ++i) {
    EXPECT_EQ(charges[i].reads, charges[0].reads) << "run " << i;
    EXPECT_EQ(charges[i].sim_nanos, charges[0].sim_nanos) << "run " << i;
  }
}

TEST(IntegrationTest, MultiClientAgreesWithSingleOnTotals) {
  ExperimentConfig config = SmallConfig();
  config.preset.workload.client_count = 3;
  config.preset.workload.cold_transactions = 20;
  config.preset.workload.hot_transactions = 40;
  Database db(config.storage);
  ASSERT_TRUE(GenerateDatabase(config.preset.database, &db).ok());
  ASSERT_TRUE(db.ColdRestart().ok());
  auto report = RunMultiClient(&db, config.preset.workload);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->merged.cold.global.transactions, 60u);
  EXPECT_EQ(report->merged.warm.global.transactions, 120u);
}

}  // namespace
}  // namespace ocb
