/// \file bench_micro.cc
/// \brief Ext-7: google-benchmark microbenchmarks of the substrate hot
///        paths — RNG draws, distribution sampling, page operations,
///        buffer-pool hits and misses, inline disk reads, uncontended
///        lock acquire/release, object codec, and generator throughput.

#include <benchmark/benchmark.h>

#include <vector>

#include "concurrency/lock_manager.h"
#include "oodb/database.h"
#include "ocb/generator.h"
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
