// Tests for the batched page-read path: DiskSim issue/await, overlapped
// simulated-time accounting, and BufferPool StartFetch/Await/FetchMany.
// Every I/O completes inline on the issuing thread.
//
// Carries the `concurrency` label: the issue/await latch handoff and the
// batch prefetch release protocol racing evictions are exactly the races
// TSan should chew on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_sim.h"
#include "util/sim_clock.h"

namespace ocb {
namespace {

StorageOptions AsyncOptions(size_t frames) {
  StorageOptions opts;
  opts.page_size = 512;
  opts.buffer_pool_pages = frames;
  return opts;
}

// --- DiskSim issue/await -------------------------------------------------

TEST(DiskSimAsyncTest, StartReadAwaitRoundTrips) {
  StorageOptions opts = AsyncOptions(4);
  DiskSim disk(opts);
  const PageId id = disk.AllocatePage();
  std::vector<uint8_t> image(opts.page_size, 0xAB);
  ASSERT_TRUE(disk.WritePage(id, image.data()).ok());

  std::vector<uint8_t> out(opts.page_size, 0);
  IoTicket ticket = disk.StartRead(id, out.data());
  ASSERT_TRUE(ticket.valid());
  ASSERT_TRUE(disk.Await(ticket).ok());
  EXPECT_FALSE(ticket.valid());  // Consumed.
  EXPECT_EQ(std::memcmp(out.data(), image.data(), opts.page_size), 0);
}

TEST(DiskSimAsyncTest, UnallocatedPageFailsAtIssue) {
  StorageOptions opts = AsyncOptions(4);
  DiskSim disk(opts);
  std::vector<uint8_t> out(opts.page_size, 0);
  IoTicket ticket = disk.StartRead(/*page_id=*/99, out.data());
  EXPECT_FALSE(disk.Await(ticket).ok());
}

// Overlap accounting: N reads issued before any await all carry the same
// simulated completion instant, so the batch advances the clock by exactly
// ONE device latency — while serial_io_nanos still accumulates all N.
TEST(DiskSimAsyncTest, BatchedReadsChargeOverlappedSimulatedTime) {
  StorageOptions opts = AsyncOptions(4);
  opts.read_latency_nanos = 1'000'000;  // 1 ms simulated.
  SimClock clock;
  DiskSim disk(opts, &clock);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(disk.AllocatePage());

  std::vector<std::vector<uint8_t>> outs(4,
                                         std::vector<uint8_t>(opts.page_size));
  std::vector<IoTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(disk.StartRead(ids[i], outs[i].data()));
  }
  for (IoTicket& t : tickets) ASSERT_TRUE(disk.Await(t).ok());

  EXPECT_EQ(clock.now_nanos(), opts.read_latency_nanos);
  EXPECT_EQ(disk.serial_io_nanos(), 4 * opts.read_latency_nanos);
  EXPECT_EQ(disk.charged_io_nanos(), opts.read_latency_nanos);
}

// Dependent (awaited-before-next-issue) reads accumulate serially: the
// issue/await path must not under-charge a chain that has no overlap to
// exploit.
TEST(DiskSimAsyncTest, DependentReadsChargeSerialSimulatedTime) {
  StorageOptions opts = AsyncOptions(4);
  opts.read_latency_nanos = 1'000'000;
  SimClock clock;
  DiskSim disk(opts, &clock);
  std::vector<uint8_t> out(opts.page_size);
  for (int i = 0; i < 3; ++i) {
    const PageId id = disk.AllocatePage();
    IoTicket t = disk.StartRead(id, out.data());
    ASSERT_TRUE(disk.Await(t).ok());
  }
  EXPECT_EQ(clock.now_nanos(), 3 * opts.read_latency_nanos);
  EXPECT_EQ(disk.charged_io_nanos(), 3 * opts.read_latency_nanos);
}

// The satellite bugfix: blocking wrappers issued from concurrent threads
// must ALSO charge per-request issue→complete intervals, so two overlapped
// blocking reads advance the clock by less than their sum (they used to
// serialize 2x unconditionally via Advance()).
TEST(DiskSimAsyncTest, ConcurrentBlockingReadsOverlapSimulatedTime) {
  StorageOptions opts = AsyncOptions(4);
  opts.read_latency_nanos = 1'000'000;
  SimClock clock;
  DiskSim disk(opts, &clock);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();

  // Both threads read the issue instant before either awaits, modeling
  // two clients whose I/O genuinely overlaps.
  std::atomic<int> at_gate{0};
  auto reader = [&](PageId id) {
    std::vector<uint8_t> out(opts.page_size);
    at_gate.fetch_add(1);
    while (at_gate.load() < 2) std::this_thread::yield();
    ASSERT_TRUE(disk.ReadPage(id, out.data()).ok());
  };
  std::thread t1(reader, a);
  std::thread t2(reader, b);
  t1.join();
  t2.join();

  // AdvanceTo is a max, not a sum: the clock lands within [1x, 2x] of the
  // latency and strictly below the serialized 2x only when the issues
  // actually interleaved — which the gate forces.
  EXPECT_GE(clock.now_nanos(), opts.read_latency_nanos);
  EXPECT_LE(clock.now_nanos(), 2 * opts.read_latency_nanos);
  EXPECT_EQ(clock.now_nanos(), disk.charged_io_nanos());
}

// The exact counters and nanos of a fixed mix: four writes in the
// generation scope, then in the transaction scope an overlapped read batch,
// a dependent read, the blocking wrappers and a read that fails at issue.
// Accounting happens at issue, and only overlapped reads share a
// completion instant.
TEST(DiskSimAsyncTest, InlineCompletionAccountsExactly) {
  StorageOptions opts = AsyncOptions(4);
  opts.read_latency_nanos = 1'000'000;
  opts.write_latency_nanos = 3'000'000;
  SimClock clock;
  DiskSim disk(opts, &clock);
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(disk.AllocatePage());

  for (size_t i = 0; i < ids.size(); ++i) {
    std::vector<uint8_t> image(opts.page_size, static_cast<uint8_t>(i + 1));
    EXPECT_TRUE(disk.WritePage(ids[i], image.data()).ok());
  }

  disk.set_scope(IoScope::kTransaction);
  std::vector<uint8_t> bytes_read((ids.size() + 1) * opts.page_size);
  std::vector<IoTicket> tickets;
  for (size_t i = 0; i < ids.size(); ++i) {
    tickets.push_back(disk.StartRead(ids[i], &bytes_read[i * opts.page_size]));
  }
  for (IoTicket& t : tickets) EXPECT_TRUE(disk.Await(t).ok());
  std::vector<uint8_t> page(opts.page_size);
  IoTicket dependent = disk.StartRead(ids[0], page.data());
  EXPECT_TRUE(disk.Await(dependent).ok());
  EXPECT_TRUE(disk.WritePage(ids[1], page.data()).ok());
  EXPECT_TRUE(
      disk.ReadPage(ids[1], &bytes_read[ids.size() * opts.page_size]).ok());
  IoTicket missing = disk.StartRead(/*page_id=*/99, page.data());
  EXPECT_TRUE(disk.Await(missing).IsIOError());

  // 4 generation writes; 6 transaction reads and 1 write (the failed read
  // charges nothing).
  std::vector<uint64_t> counters;  // reads, writes of every scope in turn.
  for (size_t s = 0; s < static_cast<size_t>(IoScope::kNumScopes); ++s) {
    const IoCounters& c = disk.counters(static_cast<IoScope>(s));
    counters.push_back(c.reads);
    counters.push_back(c.writes);
  }
  EXPECT_EQ(counters, (std::vector<uint64_t>{0, 4, 6, 1, 0, 0}));
  EXPECT_EQ(disk.serial_io_nanos(), 21'000'000u);  // 4×3 + 6×1 + 3 ms.
  // Writes 4×3 ms serially, read batch 1 ms, then 1 + 3 + 1 ms serially.
  EXPECT_EQ(clock.now_nanos(), 18'000'000u);
  EXPECT_EQ(disk.charged_io_nanos(), clock.now_nanos());
  EXPECT_EQ(bytes_read[0], 1);
  EXPECT_EQ(bytes_read.back(), 1);  // Page 0's image, rewritten.
}

TEST(DiskSimAsyncTest, InlineTicketIsConsumedByMoveAndAwait) {
  StorageOptions opts = AsyncOptions(4);
  DiskSim disk(opts);
  const PageId id = disk.AllocatePage();
  std::vector<uint8_t> out(opts.page_size);

  IoTicket first = disk.StartRead(id, out.data());
  ASSERT_TRUE(first.valid());
  IoTicket second = std::move(first);
  EXPECT_FALSE(first.valid());
  EXPECT_TRUE(disk.Await(first).IsInvalidArgument());
  EXPECT_TRUE(disk.Await(second).ok());
  EXPECT_FALSE(second.valid());
  EXPECT_TRUE(disk.Await(second).IsInvalidArgument());

  IoTicket third = disk.StartRead(id, out.data());
  second = std::move(third);
  EXPECT_FALSE(third.valid());
  EXPECT_TRUE(disk.Await(third).IsInvalidArgument());
  EXPECT_TRUE(disk.Await(second).ok());
  EXPECT_EQ(disk.TotalCounters().reads, 2u);
}

TEST(DiskSimAsyncTest, InlineErrorsSurfaceFromAwait) {
  StorageOptions opts = AsyncOptions(4);
  // Every write to /dev/full fails with ENOSPC; a page this large reaches
  // the device inside fwrite instead of sitting in the stdio buffer.
  opts.page_size = 1 << 16;
  opts.backing_file = "/dev/full";
  SimClock clock;
  DiskSim disk(opts, &clock);
  std::vector<uint8_t> page(opts.page_size, 0x5A);

  IoTicket unallocated = disk.StartRead(/*page_id=*/7, page.data());
  ASSERT_TRUE(unallocated.valid());
  EXPECT_TRUE(disk.Await(unallocated).IsIOError());

  const PageId id = disk.AllocatePage();
  EXPECT_TRUE(disk.WritePage(id, page.data()).IsIOError());
  // A failed I/O never advances the clock.
  EXPECT_EQ(clock.now_nanos(), 0u);
  EXPECT_EQ(disk.charged_io_nanos(), 0u);
}

// --- BufferPool issue/await ----------------------------------------------

// Creates `count` pages, each carrying one record whose bytes encode the
// page's index, flushes, and cools the cache. Returns the page ids.
std::vector<PageId> BuildMarkedPages(BufferPool* pool, int count) {
  std::vector<PageId> ids;
  for (int i = 0; i < count; ++i) {
    PageId id = kInvalidPageId;
    auto h = pool->NewPage(&id);
    EXPECT_TRUE(h.ok());
    std::vector<uint8_t> marker(16, static_cast<uint8_t>(i + 1));
    EXPECT_TRUE(h->page().Insert(marker).ok());
    h->MarkDirty();
    ids.push_back(id);
  }
  EXPECT_TRUE(pool->FlushAll().ok());
  EXPECT_TRUE(pool->InvalidateAll().ok());
  return ids;
}

void ExpectMarker(PageHandle* h, int index) {
  auto rec = h->page().Read(0);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.value().size(), 16u);
  EXPECT_EQ(rec.value()[0], static_cast<uint8_t>(index + 1));
}

TEST(BufferPoolAsyncTest, StartFetchAwaitMissAndHit) {
  StorageOptions opts = AsyncOptions(8);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, 2);

  {
    // Miss path.
    PendingFetch f = pool.StartFetch(ids[0], LatchMode::kShared);
    ASSERT_TRUE(f.pending());
    auto h = pool.Await(std::move(f));
    ASSERT_TRUE(h.ok());
    ExpectMarker(&h.value(), 0);
  }
  {
    // Hit path (now resident).
    PendingFetch f = pool.StartFetch(ids[0], LatchMode::kExclusive);
    ASSERT_TRUE(f.pending());
    auto h = pool.Await(std::move(f));
    ASSERT_TRUE(h.ok());
    ExpectMarker(&h.value(), 0);
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolAsyncTest, StartFetchFailsCleanlyWhenAllFramesPinned) {
  StorageOptions opts = AsyncOptions(2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId a = kInvalidPageId;
  PageId b = kInvalidPageId;
  auto ha = pool.NewPage(&a);
  auto hb = pool.NewPage(&b);
  ASSERT_TRUE(ha.ok());
  ASSERT_TRUE(hb.ok());
  const PageId c = disk.AllocatePage();

  PendingFetch f = pool.StartFetch(c);
  EXPECT_FALSE(f.pending());
  EXPECT_FALSE(f.issue_status().ok());
  auto h = pool.Await(std::move(f));
  EXPECT_FALSE(h.ok());
}

TEST(BufferPoolAsyncTest, AbandonedPendingFetchReleasesThePage) {
  StorageOptions opts = AsyncOptions(8);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, 1);
  {
    PendingFetch f = pool.StartFetch(ids[0]);
    ASSERT_TRUE(f.pending());
    // Dropped unawaited: the dtor must finish the read and unpin.
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);
  auto h = pool.FetchPage(ids[0], LatchMode::kShared);
  ASSERT_TRUE(h.ok());  // Frame stayed installed (the read succeeded).
  EXPECT_EQ(pool.stats().hits, 1u);
}

// FetchMany must be result-equivalent to N sequential FetchPage calls:
// same bytes afterwards, same miss/read counts — just issued as a batch.
TEST(BufferPoolAsyncTest, FetchManyMatchesSequentialFetches) {
  constexpr int kPages = 12;
  StorageOptions opts = AsyncOptions(32);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, kPages);

  const uint64_t reads_before = disk.TotalCounters().reads;
  // Duplicates must dedupe, order must not matter.
  std::vector<PageId> request(ids.rbegin(), ids.rend());
  request.push_back(ids[0]);
  ASSERT_TRUE(pool.FetchMany(request).ok());
  EXPECT_EQ(disk.TotalCounters().reads - reads_before,
            static_cast<uint64_t>(kPages));
  EXPECT_EQ(pool.stats().misses, static_cast<uint64_t>(kPages));
  EXPECT_EQ(pool.pinned_frames(), 0u);  // Prefetch leaves nothing pinned.

  // Every page is now a hit with the exact bytes a blocking fetch yields.
  for (int i = 0; i < kPages; ++i) {
    auto h = pool.FetchPage(ids[i], LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    ExpectMarker(&h.value(), i);
  }
  EXPECT_EQ(disk.TotalCounters().reads - reads_before,
            static_cast<uint64_t>(kPages));  // All hits: no new reads.
  EXPECT_EQ(pool.stats().hits, static_cast<uint64_t>(kPages));
}

// A prefetch batch larger than the pool must still succeed: the batch is
// chunked so its own pins never hold every frame of a stripe hostage
// (a traversal frontier can easily outnumber the frames).
TEST(BufferPoolAsyncTest, FetchManyLargerThanThePoolSucceeds) {
  constexpr int kPages = 24;
  StorageOptions opts = AsyncOptions(8);  // 8 frames, single stripe.
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, kPages);

  ASSERT_TRUE(pool.FetchMany(ids).ok());
  EXPECT_EQ(pool.pinned_frames(), 0u);
  for (int i = 0; i < kPages; ++i) {
    auto h = pool.FetchPage(ids[i], LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    ExpectMarker(&h.value(), i);
  }
}

// Prefetch is advisory: when held pins leave no frame for a miss, the
// batch skips those pages instead of failing the caller's transaction —
// the later blocking read fetches them one at a time.
TEST(BufferPoolAsyncTest, FetchManyToleratesPinPressure) {
  constexpr int kPages = 8;
  StorageOptions opts = AsyncOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, kPages);

  {
    // Hold all but one frame pinned while the batch runs.
    auto a = pool.FetchPage(ids[0], LatchMode::kShared);
    auto b = pool.FetchPage(ids[1], LatchMode::kShared);
    auto c = pool.FetchPage(ids[2], LatchMode::kShared);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_TRUE(pool.FetchMany(ids).ok());
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);
  for (int i = 0; i < kPages; ++i) {
    auto h = pool.FetchPage(ids[i], LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    ExpectMarker(&h.value(), i);
  }
}

// A batch of misses advances the simulated clock by ONE latency: the whole
// point of issuing every miss before awaiting any.
TEST(BufferPoolAsyncTest, FetchManyOverlapsSimulatedTime) {
  constexpr int kPages = 8;
  StorageOptions opts = AsyncOptions(32);
  opts.read_latency_nanos = 1'000'000;
  opts.write_latency_nanos = 0;  // Keep the build phase off the clock.
  SimClock clock;
  DiskSim disk(opts, &clock);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, kPages);

  const uint64_t before = clock.now_nanos();
  ASSERT_TRUE(pool.FetchMany(ids).ok());
  EXPECT_EQ(clock.now_nanos() - before, opts.read_latency_nanos);
}

// --- Races (the TSan meat) -----------------------------------------------

// Concurrent fetchers, prefetchers and dirty writers over a pool far
// smaller than the page set: every interleaving of eviction-during-
// pending-fetch and dirty write-back under the stripe mutex gets
// exercised.
TEST(BufferPoolAsyncConcurrencyTest, MixedFetchPrefetchEvictStorm) {
  constexpr int kPages = 48;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  StorageOptions opts = AsyncOptions(8);
  opts.latch_stripes = 2;
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> ids = BuildMarkedPages(&pool, kPages);

  std::atomic<bool> failed{false};
  auto worker = [&](unsigned seed) {
    uint64_t state = seed * 2654435761u + 1;
    auto next = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<uint32_t>(state >> 33);
    };
    for (int op = 0; op < kOpsPerThread && !failed.load(); ++op) {
      const uint32_t dice = next() % 10;
      if (dice < 6) {
        // Plain read with integrity check. Transient frame exhaustion
        // (NoSpace: concurrent prefetch batches pin several frames at
        // once) is the pool's documented all-pinned answer, not a bug.
        const int idx = static_cast<int>(next() % kPages);
        auto h = pool.FetchPage(ids[idx], LatchMode::kShared);
        if (!h.ok()) {
          if (!h.status().IsNoSpace()) failed.store(true);
          continue;
        }
        auto rec = h->page().Read(0);
        if (!rec.ok() || rec.value()[0] != static_cast<uint8_t>(idx + 1)) {
          failed.store(true);
          break;
        }
      } else if (dice < 8) {
        // Batch prefetch of a random window.
        const int base = static_cast<int>(next() % (kPages - 4));
        std::vector<PageId> batch(ids.begin() + base, ids.begin() + base + 4);
        (void)pool.FetchMany(batch);
      } else {
        // Dirty write: rewrite the marker with the same value so readers
        // stay consistent, but the frame goes through dirty eviction.
        const int idx = static_cast<int>(next() % kPages);
        auto h = pool.FetchPage(ids[idx], LatchMode::kExclusive);
        if (!h.ok()) {
          if (!h.status().IsNoSpace()) failed.store(true);
          continue;
        }
        std::vector<uint8_t> marker(16, static_cast<uint8_t>(idx + 1));
        if (!h->page().Update(0, marker).ok()) {
          failed.store(true);
          break;
        }
        h->MarkDirty();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t + 1);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());

  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.pinned_frames(), 0u);

  // Post-storm integrity: every page still carries its marker.
  ASSERT_TRUE(pool.InvalidateAll().ok());
  for (int i = 0; i < kPages; ++i) {
    auto h = pool.FetchPage(ids[i], LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    ExpectMarker(&h.value(), i);
  }
}

}  // namespace
}  // namespace ocb
