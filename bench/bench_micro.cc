/// \file bench_micro.cc
/// \brief Ext-7: google-benchmark microbenchmarks of the substrate hot
///        paths — RNG draws, distribution sampling, page operations,
///        buffer-pool hits and misses, disk reads,
///        uncontended and contended lock acquire/release, commit-pipeline
///        submit, version-chain lookup, object codec, object-table lookup
///        and live-oid listing, DSTC observation, and generator throughput.

#include <benchmark/benchmark.h>

#include <mutex>
#include <utility>
#include <vector>

#include "clustering/dstc.h"
#include "concurrency/commit_pipeline.h"
#include "concurrency/lock_manager.h"
#include "concurrency/version_store.h"
#include "oodb/database.h"
#include "ocb/generator.h"
#include "sharding/sharded_database.h"
#include "storage/buffer_pool.h"
#include "util/distribution.h"
#include "util/rng.h"

namespace ocb {
namespace {

void BM_RngNextUint32(benchmark::State& state) {
  LewisPayneRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextUint32());
  }
}
BENCHMARK(BM_RngNextUint32);

void BM_RngUniformInt(benchmark::State& state) {
  LewisPayneRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformInt(0, 19999));
  }
}
BENCHMARK(BM_RngUniformInt);

void BM_DistributionDraw(benchmark::State& state) {
  LewisPayneRng rng(1);
  const DistributionSpec specs[] = {
      DistributionSpec::Uniform(), DistributionSpec::Zipf(0.99),
      DistributionSpec::Gaussian(0.15),
      DistributionSpec::SpecialRefZone(100, 0.9)};
  const DistributionSpec& spec = specs[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DrawFromDistribution(spec, &rng, 0, 19999, 10000));
  }
}
BENCHMARK(BM_DistributionDraw)->DenseRange(0, 3);

void BM_PageInsertErase(benchmark::State& state) {
  std::vector<uint8_t> buffer(4096);
  Page page(buffer.data(), buffer.size());
  page.Init(0);
  const std::vector<uint8_t> record(static_cast<size_t>(state.range(0)),
                                    0xAB);
  for (auto _ : state) {
    auto slot = page.Insert(record);
    benchmark::DoNotOptimize(slot);
    if (slot.ok()) {
      (void)page.Erase(slot.value());
    } else {
      page.Init(0);
    }
  }
}
BENCHMARK(BM_PageInsertErase)->Arg(50)->Arg(200)->Arg(1000);

void BM_BufferPoolHit(benchmark::State& state) {
  StorageOptions options;
  options.buffer_pool_pages = 8;
  DiskSim disk(options);
  BufferPool pool(&disk, options);
  PageId id;
  { auto h = pool.NewPage(&id); }
  for (auto _ : state) {
    auto h = pool.FetchPage(id);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_BufferPoolHit);

// The per-miss floor: 8 frames cycling over 64 clean pages, so every fetch
// misses, evicts the least recently used frame (no write-back) and reads
// the page through the inline DiskSim path.
void BM_BufferPoolMiss(benchmark::State& state) {
  StorageOptions options;
  options.buffer_pool_pages = 8;
  DiskSim disk(options);
  BufferPool pool(&disk, options);
  std::vector<PageId> pages;
  for (int i = 0; i < 64; ++i) pages.push_back(disk.AllocatePage());
  size_t next = 0;
  for (auto _ : state) {
    auto h = pool.FetchPage(pages[next], LatchMode::kShared);
    benchmark::DoNotOptimize(h);
    next = (next + 1) % pages.size();
  }
  if (pool.stats().hits.load() != 0) state.SkipWithError("a fetch hit");
}
BENCHMARK(BM_BufferPoolMiss);

// One inline page read: the simulated disk's accounting and the page copy.
void BM_DiskSimReadPage(benchmark::State& state) {
  StorageOptions options;
  DiskSim disk(options);
  const PageId id = disk.AllocatePage();
  std::vector<uint8_t> out(options.page_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.ReadPage(id, out.data()));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DiskSimReadPage);

// The lock-manager floor: one transaction X-locks N distinct objects with
// no other transaction in the table, then releases them all at once.
void BM_LockAcquireRelease(benchmark::State& state) {
  const auto n = static_cast<Oid>(state.range(0));
  LockManager lm;
  TransactionContext txn(1);
  for (auto _ : state) {
    for (Oid oid = 1; oid <= n; ++oid) {
      benchmark::DoNotOptimize(lm.Acquire(&txn, oid, LockMode::kExclusive));
    }
    lm.ReleaseAll(&txn);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_LockAcquireRelease)->Arg(1)->Arg(16);

// The contended lock floor: four threads S-lock the same 64 objects, as
// strict-2PL readers crossing one part of the graph do, then release them
// all. Timed in wall time: a thread asleep on a mutex uses no CPU.
void BM_LockAcquireReleaseShared(benchmark::State& state) {
  constexpr Oid kObjects = 64;
  static LockManager lm;
  TransactionContext txn(static_cast<TxnId>(state.thread_index()) + 1);
  for (auto _ : state) {
    for (Oid oid = 1; oid <= kObjects; ++oid) {
      benchmark::DoNotOptimize(lm.Acquire(&txn, oid, LockMode::kShared));
    }
    lm.ReleaseAll(&txn);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kObjects));
}
BENCHMARK(BM_LockAcquireReleaseShared)->Threads(4)->UseRealTime();

// The version-chain floor: snapshot lookups from four threads over 4,096
// objects, half of them with a version newer than the snapshot (a copied
// pre-image) and half with no chain (the read falls through to current
// state). Each snapshot read of an object makes two such lookups. Wall
// time, as above.
void BM_VersionStoreGetVisible(benchmark::State& state) {
  constexpr Oid kObjects = 4096;
  static VersionStore store;
  static std::once_flag filled;
  std::call_once(filled, [] {
    for (Oid oid = 2; oid <= kObjects; oid += 2) {
      store.PublishPreImage(1, oid, std::vector<uint8_t>(100, 7));
    }
    store.StampCommitted(1);
  });
  std::vector<uint8_t> out;
  Oid oid = static_cast<Oid>(state.thread_index()) * (kObjects / 4);
  for (auto _ : state) {
    oid = oid % kObjects + 1;
    benchmark::DoNotOptimize(store.GetVisible(oid, 0, &out));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VersionStoreGetVisible)->Threads(4)->UseRealTime();

// The commit-pipeline floor: one uncontended committer, so every Submit
// leads a batch of one; the batch function only sets OK.
void BM_CommitPipelineSubmit(benchmark::State& state) {
  CommitPipeline pipeline(
      [](const std::vector<CommitPipeline::Request*>& batch) {
        for (CommitPipeline::Request* r : batch) r->status = Status::OK();
      });
  int handle = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.Submit(&handle));
  }
}
BENCHMARK(BM_CommitPipelineSubmit);

void BM_ObjectCodecRoundTrip(benchmark::State& state) {
  Object obj;
  obj.class_id = 3;
  obj.orefs.assign(10, 42);
  obj.backrefs.assign(static_cast<size_t>(state.range(0)), 7);
  obj.filler_size = 50;
  std::vector<uint8_t> bytes;
  for (auto _ : state) {
    obj.EncodeTo(&bytes);
    auto decoded = Object::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_ObjectCodecRoundTrip)->Arg(0)->Arg(10)->Arg(100);

void BM_ObjectReadThroughDatabase(benchmark::State& state) {
  StorageOptions options;
  Database db(options);
  DatabaseParameters params;
  params.num_classes = 10;
  params.num_objects = 2000;
  params.max_nref = 5;
  auto report = GenerateDatabase(params, &db);
  if (!report.ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  LewisPayneRng rng(5);
  const std::vector<Oid> oids = db.object_store()->LiveOids();
  for (auto _ : state) {
    const Oid oid = oids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
    auto obj = db.PeekObject(oid);
    benchmark::DoNotOptimize(obj);
  }
}
BENCHMARK(BM_ObjectReadThroughDatabase);

DatabaseParameters TwentyThousandObjects() {
  DatabaseParameters params;
  params.num_objects = 20000;
  return params;
}

// The object-table floor: Contains of a live oid over the table of a
// 20,000-object base (every object read does two such lookups: the
// resolution and its re-validation under the page latch). The oids are
// drawn before timing.
void BM_ObjectTableLookup(benchmark::State& state) {
  StorageOptions options;
  Database db(options);
  if (!GenerateDatabase(TwentyThousandObjects(), &db).ok()) {
    state.SkipWithError("generation failed");
    return;
  }
  const std::vector<Oid> live = db.LiveOidsSnapshot();
  LewisPayneRng rng(7);
  std::vector<Oid> probes(4096);
  for (Oid& oid : probes) {
    oid = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
  }
  const ObjectStore* store = db.object_store();
  size_t next = 0;
  for (auto _ : state) {
    const bool hit = store->Contains(probes[next++ % probes.size()]);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_ObjectTableLookup);

// Root-pool repair as OCB's read/write mix runs it after each committed
// delete: one LiveOidsSnapshot of a 20,000-object base. Arg 1 is a
// Database; 4 a ShardedDatabase of 4 shards, which merges their lists.
void BM_LiveOidsSnapshot(benchmark::State& state) {
  const auto run = [&state](auto* db) {
    if (!GenerateDatabase(TwentyThousandObjects(), db).ok()) {
      state.SkipWithError("generation failed");
      return;
    }
    size_t listed = 0;
    for (auto _ : state) {
      const std::vector<Oid> live = db->LiveOidsSnapshot();
      benchmark::DoNotOptimize(live.data());
      listed += live.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(listed));
  };
  StorageOptions options;
  if (state.range(0) == 1) {
    Database db(options);
    run(&db);
  } else {
    ShardedDatabase db(options, static_cast<uint32_t>(state.range(0)));
    run(&db);
  }
}
BENCHMARK(BM_LiveOidsSnapshot)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// DSTC's phase 1 as ocb-cluster drives it: one transaction of 360 link
// crossings per iteration, 500-transaction observation periods whose
// close (selection and consolidation) falls inside the timed loop. The
// crossings are random walks over a 20,000-object graph of five
// references per object, drawn before timing.
void BM_DstcObserve(benchmark::State& state) {
  constexpr int64_t kObjects = 20000;
  constexpr int64_t kRefs = 5;
  constexpr size_t kCrossingsPerTxn = 360;
  constexpr size_t kPeriod = 500;
  LewisPayneRng rng(1998);
  std::vector<Oid> refs(static_cast<size_t>(kObjects * kRefs));
  for (Oid& ref : refs) ref = static_cast<Oid>(rng.UniformInt(1, kObjects));
  std::vector<std::pair<Oid, Oid>> stream;
  Oid at = 1;
  while (stream.size() < kPeriod * kCrossingsPerTxn) {
    // A walk restarts at a fresh root every eight links, as a traversal
    // returns to shallower depths.
    if (stream.size() % 8 == 0) {
      at = static_cast<Oid>(rng.UniformInt(1, kObjects));
    }
    const Oid to = refs[static_cast<size_t>(
        static_cast<int64_t>(at - 1) * kRefs + rng.UniformInt(0, kRefs - 1))];
    stream.push_back({at, to});
    at = to;
  }
  DstcOptions options;
  options.observation_period_transactions = kPeriod;
  options.selection_threshold = 1.0;
  Dstc dstc(options);
  size_t next = 0;
  for (auto _ : state) {
    dstc.OnTransactionBegin();
    for (size_t i = 0; i < kCrossingsPerTxn; ++i, ++next) {
      const auto& [from, to] = stream[next % stream.size()];
      dstc.OnLinkCross(from, to, 0, false);
    }
    dstc.OnTransactionEnd();
  }
  benchmark::DoNotOptimize(dstc.consolidated_links());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kCrossingsPerTxn));
}
BENCHMARK(BM_DstcObserve);

void BM_GenerateDatabase(benchmark::State& state) {
  const uint64_t objects = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    StorageOptions options;
    Database db(options);
    DatabaseParameters params;
    params.num_objects = objects;
    auto report = GenerateDatabase(params, &db);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(objects));
}
BENCHMARK(BM_GenerateDatabase)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ocb

BENCHMARK_MAIN();
