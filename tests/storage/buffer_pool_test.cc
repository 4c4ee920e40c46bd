// Tests for the buffer pool: caching, eviction, pinning, write-back.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <vector>

namespace ocb {
namespace {

StorageOptions PoolOptions(size_t frames) {
  StorageOptions opts;
  opts.page_size = 512;
  opts.buffer_pool_pages = frames;
  return opts;
}

TEST(BufferPoolTest, NewPageIsPinnedAndDirty) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId id = kInvalidPageId;
  auto handle = pool.NewPage(&id);
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(pool.pinned_frames(), 1u);
  handle->Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST(BufferPoolTest, FetchHitDoesNotTouchDisk) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId id = kInvalidPageId;
  { auto h = pool.NewPage(&id); ASSERT_TRUE(h.ok()); }
  const uint64_t reads_before = disk.TotalCounters().reads;
  { auto h = pool.FetchPage(id); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(disk.TotalCounters().reads, reads_before);  // Cached.
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  const StorageOptions opts = PoolOptions(2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  // Create page 0, write a marker through the handle, release.
  PageId p0 = kInvalidPageId;
  {
    auto h = pool.NewPage(&p0);
    ASSERT_TRUE(h.ok());
    Page page = h->page();
    auto slot = page.Insert(std::vector<uint8_t>(8, 0xCD));
    ASSERT_TRUE(slot.ok());
    h->MarkDirty();
  }
  // Fill the pool with two more pages, evicting page 0.
  for (int i = 0; i < 2; ++i) {
    PageId id = kInvalidPageId;
    auto h = pool.NewPage(&id);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
  // Re-fetch page 0 from disk: the marker must have survived.
  auto h = pool.FetchPage(p0);
  ASSERT_TRUE(h.ok());
  const Page page = h->page();
  auto read = page.Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0], 0xCD);
}

TEST(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  const StorageOptions opts = PoolOptions(2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0, p1, p2;
  { auto h = pool.NewPage(&p0); ASSERT_TRUE(h.ok()); }
  { auto h = pool.NewPage(&p1); ASSERT_TRUE(h.ok()); }
  // Touch p0 so p1 becomes the LRU victim.
  { auto h = pool.FetchPage(p0); ASSERT_TRUE(h.ok()); }
  { auto h = pool.NewPage(&p2); ASSERT_TRUE(h.ok()); }
  // p0 should still be cached (hit), p1 should miss.
  pool.ResetStats();
  { auto h = pool.FetchPage(p0); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().hits, 1u);
  { auto h = pool.FetchPage(p1); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, PinnedFramesAreNotEvicted) {
  const StorageOptions opts = PoolOptions(2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0, p1;
  auto pinned = pool.NewPage(&p0);
  ASSERT_TRUE(pinned.ok());
  { auto h = pool.NewPage(&p1); ASSERT_TRUE(h.ok()); }
  // Allocating two more pages must evict p1 (twice re-used frame), never p0.
  for (int i = 0; i < 2; ++i) {
    PageId id;
    auto h = pool.NewPage(&id);
    ASSERT_TRUE(h.ok());
  }
  pool.ResetStats();
  // Page latches are not recursive: release the handle before re-fetching.
  pinned->Release();
  { auto h = pool.FetchPage(p0); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().hits, 1u);  // Still resident.
}

TEST(BufferPoolTest, AllPinnedFailsCleanly) {
  const StorageOptions opts = PoolOptions(2);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0, p1;
  auto h0 = pool.NewPage(&p0);
  auto h1 = pool.NewPage(&p1);
  ASSERT_TRUE(h0.ok() && h1.ok());
  PageId p2;
  auto h2 = pool.NewPage(&p2);
  EXPECT_FALSE(h2.ok());
  EXPECT_TRUE(h2.status().IsNoSpace());
  // A miss finds no frame either, and backs its pin count out.
  auto fetched = pool.FetchPage(disk.AllocatePage());
  EXPECT_TRUE(fetched.status().IsNoSpace());
  EXPECT_EQ(pool.pinned_frames(), 2u);
  EXPECT_EQ(pool.total_pins(), 2u);
}

// A miss whose disk read fails (here: a page id the disk never allocated)
// leaves nothing behind: the frame is uninstalled and unpinned, so a
// second fetch of the id misses and fails again instead of hitting, and
// every frame can still be claimed afterwards.
TEST(BufferPoolTest, FailedMissUninstallsItsFrame) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  constexpr PageId kUnallocated = 99;
  auto failed = pool.FetchPage(kUnallocated, LatchMode::kShared);
  EXPECT_TRUE(failed.status().IsIOError());
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_EQ(pool.total_pins(), 0u);

  auto again = pool.FetchPage(kUnallocated);
  EXPECT_TRUE(again.status().IsIOError());
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(disk.TotalCounters().reads, 0u);  // Failed reads charge nothing.

  std::vector<PageHandle> held;
  for (size_t i = 0; i < opts.buffer_pool_pages; ++i) {
    PageId id = kInvalidPageId;
    auto h = pool.NewPage(&id);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    held.push_back(std::move(h).value());
  }
  EXPECT_EQ(pool.pinned_frames(), opts.buffer_pool_pages);
}

TEST(BufferPoolTest, FlushAllPersistsWithoutEvicting) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0;
  {
    auto h = pool.NewPage(&p0);
    ASSERT_TRUE(h.ok());
    Page page = h->page();
    ASSERT_TRUE(page.Insert(std::vector<uint8_t>(4, 0x77)).ok());
    h->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // Direct disk read shows the flushed image.
  std::vector<uint8_t> raw(opts.page_size);
  ASSERT_TRUE(disk.ReadPage(p0, raw.data()).ok());
  Page page(raw.data(), opts.page_size);
  auto read = page.Read(0);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)[0], 0x77);
  // Still cached afterwards.
  pool.ResetStats();
  { auto h = pool.FetchPage(p0); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, InvalidateAllColdStartsTheCache) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0;
  { auto h = pool.NewPage(&p0); ASSERT_TRUE(h.ok()); }
  ASSERT_TRUE(pool.InvalidateAll().ok());
  pool.ResetStats();
  { auto h = pool.FetchPage(p0); ASSERT_TRUE(h.ok()); }
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, InvalidateAllRefusesPinnedFrames) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0;
  auto h = pool.NewPage(&p0);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(pool.InvalidateAll().IsAborted());
}

TEST(BufferPoolTest, MoveHandleTransfersPin) {
  const StorageOptions opts = PoolOptions(4);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  PageId p0;
  auto h = pool.NewPage(&p0);
  ASSERT_TRUE(h.ok());
  PageHandle moved = std::move(h).value();
  EXPECT_EQ(pool.pinned_frames(), 1u);
  moved.Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

// A page set four times the pool: every fetch returns the right page and
// LRU evicts as the working set cycles through.
TEST(BufferPoolTest, LruCacheWorksAndEvicts) {
  const StorageOptions opts = PoolOptions(8);
  DiskSim disk(opts);
  BufferPool pool(&disk, opts);
  std::vector<PageId> pages(32);
  for (auto& id : pages) {
    auto h = pool.NewPage(&id);
    ASSERT_TRUE(h.ok());
  }
  // Re-touch all pages; with 8 frames over 32 pages most must miss, and
  // every fetch must return the correct page.
  for (PageId id : pages) {
    auto h = pool.FetchPage(id);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->page().page_id(), id);
  }
  EXPECT_GT(pool.stats().misses, 0u);
  EXPECT_GE(pool.stats().evictions, 24u);
}

}  // namespace
}  // namespace ocb
