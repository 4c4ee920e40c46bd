// Tests for the simulated disk and its I/O accounting scopes.

#include "storage/disk_sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ocb {
namespace {

StorageOptions SmallOptions() {
  StorageOptions opts;
  opts.page_size = 512;
  opts.read_latency_nanos = 100;
  opts.write_latency_nanos = 200;
  return opts;
}

TEST(DiskSimTest, AllocateReadWriteRoundtrip) {
  SimClock clock;
  DiskSim disk(SmallOptions(), &clock);
  const PageId p = disk.AllocatePage();
  EXPECT_EQ(p, 0u);
  EXPECT_EQ(disk.num_pages(), 1u);

  std::vector<uint8_t> out(512, 0xFF), in(512, 0xAB);
  ASSERT_TRUE(disk.WritePage(p, in.data()).ok());
  ASSERT_TRUE(disk.ReadPage(p, out.data()).ok());
  EXPECT_EQ(out, in);
}

TEST(DiskSimTest, FreshPageIsZeroed) {
  SimClock clock;
  DiskSim disk(SmallOptions(), &clock);
  const PageId p = disk.AllocatePage();
  std::vector<uint8_t> out(512, 0xFF);
  ASSERT_TRUE(disk.ReadPage(p, out.data()).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(512, 0));
}

TEST(DiskSimTest, OutOfRangeAccessFails) {
  SimClock clock;
  DiskSim disk(SmallOptions(), &clock);
  std::vector<uint8_t> buf(512);
  EXPECT_TRUE(disk.ReadPage(3, buf.data()).IsIOError());
  EXPECT_TRUE(disk.WritePage(3, buf.data()).IsIOError());
  // A failed I/O charges nothing: no counter, no latency, no clock advance.
  EXPECT_EQ(disk.TotalCounters().total(), 0u);
  EXPECT_EQ(disk.serial_io_nanos(), 0u);
  EXPECT_EQ(disk.charged_io_nanos(), 0u);
  EXPECT_EQ(clock.now_nanos(), 0u);
}

TEST(DiskSimTest, CountersFollowScope) {
  DiskSim disk(SmallOptions());
  const PageId p = disk.AllocatePage();
  std::vector<uint8_t> buf(512, 0);

  disk.set_scope(IoScope::kGeneration);
  ASSERT_TRUE(disk.WritePage(p, buf.data()).ok());
  disk.set_scope(IoScope::kTransaction);
  ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
  ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
  disk.set_scope(IoScope::kClustering);
  ASSERT_TRUE(disk.WritePage(p, buf.data()).ok());

  EXPECT_EQ(disk.counters(IoScope::kGeneration).writes, 1u);
  EXPECT_EQ(disk.counters(IoScope::kGeneration).reads, 0u);
  EXPECT_EQ(disk.counters(IoScope::kTransaction).reads, 2u);
  EXPECT_EQ(disk.counters(IoScope::kClustering).writes, 1u);
  EXPECT_EQ(disk.TotalCounters().total(), 4u);
}

TEST(DiskSimTest, ScopedIoScopeRestores) {
  DiskSim disk(SmallOptions());
  disk.set_scope(IoScope::kTransaction);
  {
    ScopedIoScope guard(&disk, IoScope::kClustering);
    EXPECT_EQ(disk.scope(), IoScope::kClustering);
    {
      ScopedIoScope nested(&disk, IoScope::kGeneration);
      EXPECT_EQ(disk.scope(), IoScope::kGeneration);
    }
    EXPECT_EQ(disk.scope(), IoScope::kClustering);
  }
  EXPECT_EQ(disk.scope(), IoScope::kTransaction);
}

// One thread's I/Os form a serial chain: each charges its full latency,
// so the clock, the serial sum and the charged sum all agree.
TEST(DiskSimTest, LatencyChargedToClock) {
  SimClock clock;
  DiskSim disk(SmallOptions(), &clock);
  const PageId p = disk.AllocatePage();
  std::vector<uint8_t> buf(512, 0);
  ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());   // +100.
  ASSERT_TRUE(disk.WritePage(p, buf.data()).ok());  // +200.
  ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());   // +100.
  EXPECT_EQ(clock.now_nanos(), 400u);
  EXPECT_EQ(disk.serial_io_nanos(), 400u);
  EXPECT_EQ(disk.charged_io_nanos(), 400u);
}

// Reads of concurrent clients overlap in simulated time: each read stamps
// its completion instant (now + latency) and the clock advances to the
// max, not the sum, so two reads whose stamps interleave advance it by
// less than twice the latency.
TEST(DiskSimTest, ConcurrentReadsOverlapSimulatedTime) {
  StorageOptions opts = SmallOptions();
  opts.read_latency_nanos = 1'000'000;
  SimClock clock;
  DiskSim disk(opts, &clock);
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();

  // Both threads pass the gate before either reads, modeling two clients
  // whose I/O genuinely overlaps.
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

  // The clock lands within [1x, 2x] of the latency; every nanosecond it
  // moved was charged by a read.
  EXPECT_GE(clock.now_nanos(), opts.read_latency_nanos);
  EXPECT_LE(clock.now_nanos(), 2 * opts.read_latency_nanos);
  EXPECT_EQ(clock.now_nanos(), disk.charged_io_nanos());
  EXPECT_EQ(disk.serial_io_nanos(), 2 * opts.read_latency_nanos);
}

TEST(DiskSimTest, ResetCountersKeepsPages) {
  DiskSim disk(SmallOptions());
  const PageId p = disk.AllocatePage();
  std::vector<uint8_t> in(512, 0x5A), out(512, 0);
  ASSERT_TRUE(disk.WritePage(p, in.data()).ok());
  disk.ResetCounters();
  EXPECT_EQ(disk.TotalCounters().total(), 0u);
  ASSERT_TRUE(disk.ReadPage(p, out.data()).ok());
  EXPECT_EQ(out, in);
}

TEST(IoScopeTest, Names) {
  EXPECT_STREQ(IoScopeToString(IoScope::kGeneration), "generation");
  EXPECT_STREQ(IoScopeToString(IoScope::kTransaction), "transaction");
  EXPECT_STREQ(IoScopeToString(IoScope::kClustering), "clustering");
}

}  // namespace
}  // namespace ocb
