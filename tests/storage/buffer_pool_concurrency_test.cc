// Multi-threaded buffer-pool tests for the striped, page-latched design:
// concurrent fetch/dirty/evict traffic across stripes, failed misses under
// contention, pin-blocks-eviction under pressure, shared/exclusive latch
// semantics, and the quiesce gate.
// Carries the `concurrency` ctest label, so CI re-runs it under TSan; every
// test must also hold at OCB_LATCH_STRIPES=1 (the degenerate single-stripe
// build) — correctness may not depend on striping.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace ocb {
namespace {

StorageOptions PoolOptions(size_t frames, size_t stripes,
                           size_t page_size = 512) {
  StorageOptions opts;
  opts.page_size = page_size;
  opts.buffer_pool_pages = frames;
  opts.latch_stripes = stripes;
  return opts;
}

// The marker byte SeedPages fills page `id`'s record with.
uint8_t MarkerOf(PageId id) { return static_cast<uint8_t>(id * 7 + 1); }

// Creates `count` pages, each holding one `record_size`-byte record filled
// with a per-page marker byte; returns the page ids.
std::vector<PageId> SeedPages(BufferPool* pool, size_t count,
                              size_t record_size) {
  std::vector<PageId> pages;
  for (size_t i = 0; i < count; ++i) {
    PageId id = kInvalidPageId;
    auto handle = pool->NewPage(&id);
    EXPECT_TRUE(handle.ok());
    Page page = handle->page();
    auto slot =
        page.Insert(std::vector<uint8_t>(record_size, MarkerOf(id)));
    EXPECT_TRUE(slot.ok());
    handle->MarkDirty();
    pages.push_back(id);
  }
  return pages;
}

// A record must always read as `size` identical bytes: a torn read (latch
// bug) or a lost/garbled write shows up as a mixed pattern.
bool RecordUniform(const Page& page, SlotId slot, size_t size) {
  auto record = page.Read(slot);
  if (!record.ok() || record->size() != size) return false;
  for (uint8_t b : *record) {
    if (b != (*record)[0]) return false;
  }
  return true;
}

TEST(BufferPoolConcurrencyTest, StripesHonorOptionsAndBuildCap) {
  DiskSim disk(PoolOptions(32, 4));
  BufferPool pool(&disk, PoolOptions(32, 4));
#ifdef OCB_LATCH_STRIPES
  EXPECT_EQ(pool.latch_stripes(),
            std::min<size_t>(4, OCB_LATCH_STRIPES));
#else
  EXPECT_EQ(pool.latch_stripes(), 4u);
#endif
  // Auto mode: small pools stay single-striped (seed-exact LRU).
  DiskSim small_disk(PoolOptions(8, 0));
  BufferPool small_pool(&small_disk, PoolOptions(8, 0));
  EXPECT_EQ(small_pool.latch_stripes(), 1u);
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchDirtyEvictAcrossStripes) {
  // 64 pages over 32 frames: every thread's working set overflows the
  // pool, so hits, misses, evictions and dirty writebacks all interleave
  // across the stripes.
  const StorageOptions opts = PoolOptions(32, 4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  constexpr size_t kRecordSize = 64;
  const std::vector<PageId> pages = SeedPages(&pool, 64, kRecordSize);
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t state = 0x9E3779B97F4A7C15ULL * (t + 1);
      auto next = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
      };
      for (int i = 0; i < 400 && !failed.load(); ++i) {
        const PageId page_id = pages[next() % pages.size()];
        if (next() % 4 == 0) {
          // Mutator: rewrite the record with a fresh uniform marker.
          auto handle = pool.FetchPage(page_id, LatchMode::kExclusive);
          if (!handle.ok()) continue;  // All frames pinned momentarily.
          Page page = handle->page();
          const uint8_t marker = static_cast<uint8_t>(next() | 1);
          if (!page.Update(0, std::vector<uint8_t>(kRecordSize, marker))
                   .ok()) {
            failed = true;
          }
          handle->MarkDirty();
        } else {
          auto handle = pool.FetchPage(page_id, LatchMode::kShared);
          if (!handle.ok()) continue;
          if (!RecordUniform(handle->page(), 0, kRecordSize)) failed = true;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed) << "torn or lost record under concurrent traffic";
  EXPECT_GT(pool.stats().evictions.load(), 0u);
  EXPECT_GT(pool.stats().dirty_writebacks.load(), 0u);
  // Every page must still be intact after the storm (read via the pool so
  // evicted pages come back from disk).
  for (PageId page_id : pages) {
    auto handle = pool.FetchPage(page_id, LatchMode::kShared);
    ASSERT_TRUE(handle.ok());
    EXPECT_TRUE(RecordUniform(handle->page(), 0, kRecordSize))
        << "page " << page_id;
  }
}

// Readers, dirty writers and fetchers of one unallocated page over a pool
// far smaller than the page set (2 stripes over 8 frames): misses evict
// while other threads wait on frames being read into, dirty victims are
// written back under the stripe mutex, and fetchers of the missing page
// pile up on a miss whose read fails, so the failed-miss cleanup races
// the waiters' page_id re-check.
TEST(BufferPoolConcurrencyTest, FetchEvictDirtyWriteStorm) {
  constexpr size_t kPages = 48;
  constexpr size_t kRecordSize = 16;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  const StorageOptions opts = PoolOptions(8, 2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> pages = SeedPages(&pool, kPages, kRecordSize);
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.InvalidateAll().ok());
  const PageId missing = static_cast<PageId>(disk.num_pages() + 5);

  std::atomic<bool> failed{false};
  auto worker = [&](unsigned seed) {
    uint64_t state = seed * 2654435761u + 1;
    auto next = [&state]() {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<uint32_t>(state >> 33);
    };
    for (int op = 0; op < kOpsPerThread && !failed.load(); ++op) {
      const uint32_t dice = next() % 10;
      const PageId page_id = pages[next() % kPages];
      if (dice < 2) {
        // The read fails; NoSpace is the pool's legal all-pinned answer.
        auto h = pool.FetchPage(missing, LatchMode::kShared);
        if (h.ok() || !(h.status().IsIOError() || h.status().IsNoSpace())) {
          failed = true;
        }
      } else if (dice < 7) {
        auto h = pool.FetchPage(page_id, LatchMode::kShared);
        if (!h.ok()) {
          if (!h.status().IsNoSpace()) failed = true;
          continue;
        }
        auto rec = h->page().Read(0);
        if (!rec.ok() || (*rec)[0] != MarkerOf(page_id)) failed = true;
      } else {
        // Rewrite the marker with the same value, so readers stay
        // consistent while the frame goes through dirty eviction.
        auto h = pool.FetchPage(page_id, LatchMode::kExclusive);
        if (!h.ok()) {
          if (!h.status().IsNoSpace()) failed = true;
          continue;
        }
        const std::vector<uint8_t> marker(kRecordSize, MarkerOf(page_id));
        if (!h->page().Update(0, marker).ok()) failed = true;
        h->MarkDirty();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t + 1);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(pool.total_pins(), 0u);
  EXPECT_GT(pool.stats().dirty_writebacks.load(), 0u);

  // Post-storm integrity: every page still carries its marker.
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pool.InvalidateAll().ok());
  for (PageId page_id : pages) {
    auto h = pool.FetchPage(page_id, LatchMode::kShared);
    ASSERT_TRUE(h.ok());
    EXPECT_TRUE(RecordUniform(h->page(), 0, kRecordSize));
    EXPECT_EQ((*h->page().Read(0))[0], MarkerOf(page_id));
  }
}

TEST(BufferPoolConcurrencyTest, PinBlocksEvictionUnderPressure) {
  const StorageOptions opts = PoolOptions(4, 2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> pages = SeedPages(&pool, 12, 16);
  ASSERT_TRUE(pool.FlushAll().ok());

  // Hold a pin on one page while other threads churn the pool well past
  // its capacity; the pinned frame must never be victimized.
  auto pinned = pool.FetchPage(pages[0], LatchMode::kShared);
  ASSERT_TRUE(pinned.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        for (PageId page_id : pages) {
          if (page_id == pages[0]) continue;
          auto handle = pool.FetchPage(page_id, LatchMode::kShared);
          // NoSpace is legal when every other frame is momentarily
          // pinned; anything else is not.
          if (!handle.ok()) {
            EXPECT_TRUE(handle.status().IsNoSpace());
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(pool.stats().evictions.load(), 0u);
  // Read through the still-held handle: the frame was never repurposed.
  EXPECT_TRUE(RecordUniform(pinned->page(), 0, 16));
  pinned->Release();
  pool.ResetStats();
  { auto h = pool.FetchPage(pages[0], LatchMode::kShared); }
  EXPECT_EQ(pool.stats().hits.load(), 1u);  // Still resident.
}

TEST(BufferPoolConcurrencyTest, SharedLatchesAdmitParallelReaders) {
  const StorageOptions opts = PoolOptions(4, 1);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> pages = SeedPages(&pool, 1, 16);

  // All readers must be able to hold the same page's S latch at once: each
  // acquires, then waits for the others. If S latches excluded each other
  // this would deadlock (and trip the test timeout).
  constexpr int kReaders = 4;
  std::atomic<int> holding{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&]() {
      auto handle = pool.FetchPage(pages[0], LatchMode::kShared);
      ASSERT_TRUE(handle.ok());
      holding.fetch_add(1);
      while (holding.load() < kReaders) std::this_thread::yield();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(holding.load(), kReaders);
}

TEST(BufferPoolConcurrencyTest, ExclusiveLatchExcludesReaders) {
  const StorageOptions opts = PoolOptions(4, 1);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  constexpr size_t kRecordSize = 128;
  const std::vector<PageId> pages = SeedPages(&pool, 1, kRecordSize);

  // The writer deliberately mutates the record byte by byte with a yield
  // in the middle: any reader admitted concurrently would observe a mixed
  // pattern.
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&]() {
    for (int round = 0; round < 100; ++round) {
      auto handle = pool.FetchPage(pages[0], LatchMode::kExclusive);
      ASSERT_TRUE(handle.ok());
      Page page = handle->page();
      auto record = page.Read(0);
      ASSERT_TRUE(record.ok());
      auto* bytes = const_cast<uint8_t*>(record->data());
      const uint8_t marker = static_cast<uint8_t>(round + 1);
      for (size_t i = 0; i < kRecordSize; ++i) {
        bytes[i] = marker;
        if (i == kRecordSize / 2) std::this_thread::yield();
      }
      handle->MarkDirty();
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load()) {
        auto handle = pool.FetchPage(pages[0], LatchMode::kShared);
        ASSERT_TRUE(handle.ok());
        if (!RecordUniform(handle->page(), 0, kRecordSize)) torn = true;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(torn.load()) << "reader observed a half-written record";
}

TEST(BufferPoolConcurrencyTest, QuiesceDrainsPinsAndParksNewFetches) {
  const StorageOptions opts = PoolOptions(8, 2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  const std::vector<PageId> pages = SeedPages(&pool, 4, 16);

  std::atomic<bool> pinned{false};
  std::thread holder([&]() {
    auto handle = pool.FetchPage(pages[0], LatchMode::kShared);
    ASSERT_TRUE(handle.ok());
    pinned = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // Handle released here: the quiescer may proceed only now.
  });
  while (!pinned.load()) std::this_thread::yield();
  pool.BeginQuiesce();
  // BeginQuiesce returned ⇒ the holder's pin drained first.
  EXPECT_EQ(pool.total_pins(), 0u);
  // The owner itself still has full access.
  { auto h = pool.FetchPage(pages[1], LatchMode::kShared); }
  std::atomic<bool> ended{false};
  std::thread parked([&]() {
    auto handle = pool.FetchPage(pages[2], LatchMode::kShared);
    ASSERT_TRUE(handle.ok());
    // The gate must have parked us until EndQuiesce.
    EXPECT_TRUE(ended.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ended = true;
  pool.EndQuiesce();
  holder.join();
  parked.join();
}

// The gate's entry side: a fetch that passed the "is anyone quiescing"
// check before BeginQuiesce but pinned after it had seen zero pins would
// hold a frame inside the quiesced section. Fetches count their pin
// before checking the gate, so no round may ever observe a pinned frame.
TEST(BufferPoolConcurrencyTest, QuiesceIsNeverEnteredWithAPinnedFrame) {
  const StorageOptions opts = PoolOptions(64, 0);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  std::vector<PageId> pages;
  for (int i = 0; i < 256; ++i) pages.push_back(disk.AllocatePage());

  std::atomic<bool> stop{false};
  std::vector<std::thread> fetchers;
  for (size_t t = 0; t < 3; ++t) {
    fetchers.emplace_back([&, t]() {
      size_t i = t * 85;
      while (!stop.load(std::memory_order_relaxed)) {
        auto handle =
            pool.FetchPage(pages[i++ % pages.size()], LatchMode::kShared);
        ASSERT_TRUE(handle.ok());
      }
    });
  }
  int rounds_with_pins = 0;
  for (int round = 0; round < 20000; ++round) {
    pool.BeginQuiesce();
    bool pinned = false;
    for (int probe = 0; probe < 200 && !pinned; ++probe) {
      pinned = pool.pinned_frames() != 0;
    }
    if (pinned) ++rounds_with_pins;
    pool.EndQuiesce();
  }
  stop = true;
  for (auto& t : fetchers) t.join();
  EXPECT_EQ(rounds_with_pins, 0)
      << "a fetch pinned a frame inside a quiesced section";
}

}  // namespace
}  // namespace ocb
