// Tests for the OID-addressed object store, including relocation and the
// PlaceSequence primitive used by clustering.

#include "storage/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace ocb {
namespace {

struct Fixture {
  explicit Fixture(size_t frames = 64, size_t page_size = 512,
                   Oid first_oid = 1, uint64_t oid_stride = 1)
      : options(MakeOptions(frames, page_size)),
        disk(options),
        pool(&disk, options),
        store(&pool, first_oid, oid_stride) {}

  static StorageOptions MakeOptions(size_t frames, size_t page_size) {
    StorageOptions o;
    o.page_size = page_size;
    o.buffer_pool_pages = frames;
    return o;
  }

  StorageOptions options;
  DiskSim disk;
  BufferPool pool;
  ObjectStore store;
};

std::vector<uint8_t> Payload(size_t n, uint8_t fill) {
  return std::vector<uint8_t>(n, fill);
}

TEST(ObjectStoreTest, InsertAssignsSequentialOids) {
  Fixture f;
  auto a = f.store.Insert(Payload(10, 1));
  auto b = f.store.Insert(Payload(10, 2));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  EXPECT_EQ(f.store.max_oid(), 2u);
  EXPECT_EQ(f.store.stats().objects, 2u);
}

TEST(ObjectStoreTest, ReadReturnsStoredBytes) {
  Fixture f;
  auto oid = f.store.Insert(Payload(33, 0x7E));
  ASSERT_TRUE(oid.ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(f.store.Read(*oid, &out).ok());
  EXPECT_EQ(out, Payload(33, 0x7E));
}

TEST(ObjectStoreTest, ReadMissingFails) {
  Fixture f;
  std::vector<uint8_t> out;
  EXPECT_TRUE(f.store.Read(99, &out).IsNotFound());
  EXPECT_FALSE(f.store.Contains(99));
}

TEST(ObjectStoreTest, UpdateSameAndGrownSize) {
  Fixture f;
  auto oid = f.store.Insert(Payload(50, 1));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(f.store.Update(*oid, Payload(50, 2)).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(f.store.Read(*oid, &out).ok());
  EXPECT_EQ(out, Payload(50, 2));
  // Grow beyond the original slot.
  ASSERT_TRUE(f.store.Update(*oid, Payload(400, 3)).ok());
  ASSERT_TRUE(f.store.Read(*oid, &out).ok());
  EXPECT_EQ(out, Payload(400, 3));
}

TEST(ObjectStoreTest, DeleteRemovesAndOidIsNotReused) {
  Fixture f;
  auto a = f.store.Insert(Payload(10, 1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(f.store.Delete(*a).ok());
  EXPECT_FALSE(f.store.Contains(*a));
  EXPECT_TRUE(f.store.Delete(*a).IsNotFound());
  auto b = f.store.Insert(Payload(10, 2));
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*b, *a);
}

TEST(ObjectStoreTest, OversizedObjectRejected) {
  Fixture f;
  auto r = f.store.Insert(Payload(4096, 1));
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ObjectStoreTest, PlacementHintCoLocates) {
  // 1 KB pages: after the anchor and five 150-byte fillers, the anchor's
  // page retains > 54 free bytes, so the hinted insert must land there.
  Fixture f(/*frames=*/64, /*page_size=*/1024);
  auto anchor = f.store.Insert(Payload(50, 1));
  ASSERT_TRUE(anchor.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(f.store.Insert(Payload(200, 9)).ok());
  }
  auto friend_oid = f.store.Insert(Payload(50, 2), /*placement_hint=*/*anchor);
  ASSERT_TRUE(friend_oid.ok());
  auto loc_a = f.store.Locate(*anchor);
  auto loc_b = f.store.Locate(*friend_oid);
  ASSERT_TRUE(loc_a.ok() && loc_b.ok());
  EXPECT_EQ(loc_a->page_id, loc_b->page_id);
}

TEST(ObjectStoreTest, RelocateMovesNextToNeighbor) {
  Fixture f(/*frames=*/64, /*page_size=*/1024);
  auto a = f.store.Insert(Payload(100, 1));
  ASSERT_TRUE(a.ok());
  // Push b far away (180-byte fillers leave 172 free bytes on a's page,
  // enough for b's 104-byte footprint).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(f.store.Insert(Payload(180, 9)).ok());
  }
  auto b = f.store.Insert(Payload(100, 2));
  ASSERT_TRUE(b.ok());
  ASSERT_NE(f.store.Locate(*a)->page_id, f.store.Locate(*b)->page_id);

  ASSERT_TRUE(f.store.Relocate(*b, *a).ok());
  EXPECT_EQ(f.store.Locate(*a)->page_id, f.store.Locate(*b)->page_id);
  std::vector<uint8_t> out;
  ASSERT_TRUE(f.store.Read(*b, &out).ok());
  EXPECT_EQ(out, Payload(100, 2));  // Bytes survive the move.
  EXPECT_GE(f.store.stats().relocations, 1u);
}

TEST(ObjectStoreTest, RelocateToMissingNeighborFails) {
  Fixture f;
  auto a = f.store.Insert(Payload(10, 1));
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(f.store.Relocate(*a, 12345).IsNotFound());
  EXPECT_TRUE(f.store.Relocate(12345, *a).IsNotFound());
}

TEST(ObjectStoreTest, PlaceSequenceMakesPhysicalOrderMatch) {
  Fixture f;
  // Insert 40 objects, then rewrite a scattered subset contiguously.
  std::vector<Oid> oids;
  for (int i = 0; i < 40; ++i) {
    auto oid = f.store.Insert(Payload(100, static_cast<uint8_t>(i)));
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  const std::vector<Oid> sequence = {oids[35], oids[2], oids[17], oids[8],
                                     oids[29]};
  ASSERT_TRUE(f.store.PlaceSequence(sequence).ok());
  // The five objects now sit on a small fresh page range, in order:
  // page ids non-decreasing along the sequence and tightly packed.
  std::vector<PageId> pages;
  for (Oid oid : sequence) {
    auto loc = f.store.Locate(oid);
    ASSERT_TRUE(loc.ok());
    pages.push_back(loc->page_id);
  }
  for (size_t i = 1; i < pages.size(); ++i) {
    EXPECT_GE(pages[i], pages[i - 1]);
  }
  // 5 * ~104 bytes fits comfortably in two 512-byte pages.
  EXPECT_LE(pages.back() - pages.front(), 2u);
  // Bytes intact.
  std::vector<uint8_t> out;
  ASSERT_TRUE(f.store.Read(oids[17], &out).ok());
  EXPECT_EQ(out, Payload(100, 17));
  // Unlisted objects untouched and readable.
  ASSERT_TRUE(f.store.Read(oids[0], &out).ok());
  EXPECT_EQ(out, Payload(100, 0));
}

TEST(ObjectStoreTest, PlaceSequenceUnknownOidFails) {
  Fixture f;
  auto a = f.store.Insert(Payload(10, 1));
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(f.store.PlaceSequence({*a, 999}).IsNotFound());
}

TEST(ObjectStoreTest, LiveOidsSortedAndComplete) {
  Fixture f;
  std::vector<Oid> inserted;
  for (int i = 0; i < 10; ++i) {
    auto oid = f.store.Insert(Payload(10, 0));
    ASSERT_TRUE(oid.ok());
    inserted.push_back(*oid);
  }
  ASSERT_TRUE(f.store.Delete(inserted[3]).ok());
  ASSERT_TRUE(f.store.Delete(inserted[7]).ok());
  const std::vector<Oid> live = f.store.LiveOids();
  EXPECT_EQ(live.size(), 8u);
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
  EXPECT_EQ(std::count(live.begin(), live.end(), inserted[3]), 0);
}

// A store on the progression 3, 7, 11, … (shard 2 of 4). The table
// indexes slot (oid - 3) / 4, so 601 objects grow every stripe's vector
// through several doublings.
TEST(ObjectStoreTest, StridedTableTracksInsertsDeletesAndGrowth) {
  Fixture f(/*frames=*/64, /*page_size=*/512, /*first_oid=*/3,
            /*oid_stride=*/4);
  constexpr Oid kCount = 600;
  std::map<Oid, uint8_t> live;
  for (Oid i = 0; i < kCount; ++i) {
    auto oid = f.store.Insert(Payload(12, static_cast<uint8_t>(i)));
    ASSERT_TRUE(oid.ok());
    ASSERT_EQ(*oid, 3 + 4 * i);
    live[*oid] = static_cast<uint8_t>(i);
  }
  for (Oid oid = 3; oid < 3 + 4 * kCount; oid += 4 * 7) {
    ASSERT_TRUE(f.store.Delete(oid).ok());
    live.erase(oid);
  }
  // The undo path re-registers a deleted oid with its pre-image.
  const Oid restored = 3 + 4 * 7;
  ASSERT_FALSE(f.store.Contains(restored));
  ASSERT_TRUE(f.store.InsertWithOid(restored, Payload(12, 0xAB)).ok());
  live[restored] = 0xAB;
  EXPECT_TRUE(
      f.store.InsertWithOid(restored, Payload(12, 0)).IsAlreadyExists());
  // The allocator continues on the progression.
  auto next = f.store.Insert(Payload(12, 0xCD));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3 + 4 * kCount);
  live[*next] = 0xCD;

  std::vector<Oid> expected;
  for (const auto& [oid, fill] : live) {
    expected.push_back(oid);
    std::vector<uint8_t> out;
    ASSERT_TRUE(f.store.Read(oid, &out).ok()) << "oid " << oid;
    EXPECT_EQ(out, Payload(12, fill));
  }
  EXPECT_EQ(f.store.LiveOids(), expected);
  EXPECT_EQ(f.store.stats().objects, live.size());
  // 601 slots: every stripe (a power-of-two count of them) doubled to a
  // power of two, 8 bytes a slot.
  EXPECT_EQ(f.store.table_bytes(), 1024u * 8u);
  // Oids off the progression are absent, whatever their neighbours hold.
  for (Oid oid : {Oid{0}, Oid{1}, Oid{2}, Oid{4}, Oid{5}, Oid{6}, Oid{8},
                  Oid{3 + 4 * kCount + 1}}) {
    EXPECT_FALSE(f.store.Contains(oid)) << "oid " << oid;
    EXPECT_TRUE(f.store.Locate(oid).status().IsNotFound()) << "oid " << oid;
  }
}

TEST(ObjectStoreTest, InsertWithOidRefusesOidsTheTableCannotHold) {
  {
    Fixture f;
    EXPECT_TRUE(
        f.store.InsertWithOid(kInvalidOid, Payload(8, 1)).IsInvalidArgument());
  }
  Fixture f(/*frames=*/64, /*page_size=*/512, /*first_oid=*/3,
            /*oid_stride=*/4);
  for (Oid oid : {kInvalidOid, Oid{1}, Oid{2}, Oid{4}, Oid{5}, Oid{13},
                  Oid{3 + 4 * StripedOidMap::kMaxSlots}}) {
    EXPECT_FALSE(f.store.CanHold(oid)) << "oid " << oid;
    EXPECT_TRUE(f.store.InsertWithOid(oid, Payload(8, 1)).IsInvalidArgument())
        << "oid " << oid;
  }
  // Nothing was placed and the allocator did not move.
  EXPECT_EQ(f.store.stats().objects, 0u);
  EXPECT_EQ(f.store.stats().data_pages, 0u);
  EXPECT_TRUE(f.store.LiveOids().empty());
  auto first = f.store.Insert(Payload(8, 1));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 3u);
}

// Property test: random insert/update/delete/relocate/place-sequence ops
// preserve all live object contents.
class ObjectStoreFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObjectStoreFuzz, RandomOperationsPreserveContents) {
  Fixture f(/*frames=*/32, /*page_size=*/512);
  LewisPayneRng rng(GetParam());
  std::map<Oid, std::vector<uint8_t>> expected;

  for (int op = 0; op < 1500; ++op) {
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind <= 4) {  // Insert (weighted high to grow the store).
      const size_t len = static_cast<size_t>(rng.UniformInt(1, 200));
      std::vector<uint8_t> data(len);
      for (auto& b : data) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      auto oid = f.store.Insert(data);
      ASSERT_TRUE(oid.ok());
      expected[*oid] = std::move(data);
    } else if (kind <= 6 && !expected.empty()) {  // Update.
      auto it = expected.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(expected.size()) - 1));
      const size_t len = static_cast<size_t>(rng.UniformInt(1, 200));
      std::vector<uint8_t> data(len);
      for (auto& b : data) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
      ASSERT_TRUE(f.store.Update(it->first, data).ok());
      it->second = std::move(data);
    } else if (kind == 7 && !expected.empty()) {  // Delete.
      auto it = expected.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(expected.size()) - 1));
      ASSERT_TRUE(f.store.Delete(it->first).ok());
      expected.erase(it);
    } else if (kind == 8 && expected.size() >= 2) {  // Relocate.
      auto it1 = expected.begin();
      std::advance(it1, rng.UniformInt(
                            0, static_cast<int64_t>(expected.size()) - 1));
      auto it2 = expected.begin();
      std::advance(it2, rng.UniformInt(
                            0, static_cast<int64_t>(expected.size()) - 1));
      if (it1->first != it2->first) {
        ASSERT_TRUE(f.store.Relocate(it1->first, it2->first).ok());
      }
    } else if (expected.size() >= 3) {  // PlaceSequence over a subset.
      std::vector<Oid> sequence;
      for (const auto& [oid, data] : expected) {
        if (rng.Bernoulli(0.3)) sequence.push_back(oid);
      }
      if (!sequence.empty()) {
        ASSERT_TRUE(f.store.PlaceSequence(sequence).ok());
      }
    }
  }
  ASSERT_EQ(f.store.stats().objects, expected.size());
  for (const auto& [oid, data] : expected) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(f.store.Read(oid, &out).ok());
    ASSERT_EQ(out, data) << "oid " << oid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectStoreFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Concurrency (the suite carries the `concurrency` ctest label) ------

// Hot-page contention: many threads read and rewrite objects co-located on
// one page, racing growth-relocations off it. Exercises the optimistic
// lookup→latch→validate protocol and the ordered dual-latch move path on a
// single page-latch hotspot.
TEST(ObjectStoreTest, HotPageContentionKeepsObjectsIntact) {
  // 512-byte pages: the 8×48-byte hot set leaves ~80 free bytes, so one
  // in-place growth fits but concurrent growers race — losers take the
  // dual-latched relocation path off the hot page.
  Fixture f(/*frames=*/64, /*page_size=*/512);
  // Co-locate the hot set on one page via placement hints.
  constexpr size_t kHotObjects = 8;
  constexpr size_t kBaseSize = 48;
  std::vector<Oid> hot;
  for (size_t i = 0; i < kHotObjects; ++i) {
    auto oid = f.store.Insert(Payload(kBaseSize, 0x11),
                              hot.empty() ? kInvalidOid : hot.front());
    ASSERT_TRUE(oid.ok());
    hot.push_back(*oid);
  }
  {
    auto loc0 = f.store.Locate(hot.front());
    ASSERT_TRUE(loc0.ok());
    for (Oid oid : hot) {
      auto loc = f.store.Locate(oid);
      ASSERT_TRUE(loc.ok());
      EXPECT_EQ(loc->page_id, loc0->page_id) << "hot set not co-located";
    }
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t]() {
      LewisPayneRng rng(static_cast<uint64_t>(t) + 17);
      for (int i = 0; i < 300 && !failed.load(); ++i) {
        const Oid oid = hot[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(hot.size()) - 1))];
        const int kind = static_cast<int>(rng.UniformInt(0, 9));
        if (kind < 6) {  // Read: must never be torn or mis-slotted.
          std::vector<uint8_t> out;
          Status st = f.store.Read(oid, &out);
          if (!st.ok()) {
            failed = true;
            break;
          }
          for (uint8_t b : out) {
            if (b != out[0]) failed = true;  // Torn record.
          }
        } else if (kind < 9) {  // Same-size rewrite (stays on the page).
          const uint8_t marker = static_cast<uint8_t>(t * 16 + kind);
          Status st =
              f.store.Update(oid, Payload(kBaseSize, marker));
          if (!st.ok() && !st.IsNotFound()) failed = true;
        } else {  // Growth: may relocate off the hot page (dual latch).
          const uint8_t marker = static_cast<uint8_t>(t * 16 + 15);
          Status st = f.store.Update(
              oid, Payload(kBaseSize + 80, marker));
          if (!st.ok() && !st.IsNoSpace()) failed = true;
          // Shrink it back so the page keeps churning both directions.
          st = f.store.Update(oid, Payload(kBaseSize, marker));
          if (!st.ok()) failed = true;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed) << "lost, torn or mis-resolved object";
  for (Oid oid : hot) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(f.store.Read(oid, &out).ok()) << "oid " << oid;
    ASSERT_EQ(out.size(), kBaseSize);
    for (uint8_t b : out) EXPECT_EQ(b, out[0]);
  }
  EXPECT_EQ(f.store.stats().objects, kHotObjects);
}

// Concurrent inserters and deleters over disjoint key ranges: the striped
// object table and the shared free-space map must keep counts and contents
// exact.
TEST(ObjectStoreTest, ConcurrentInsertDeleteKeepsTableExact) {
  Fixture f(/*frames=*/64, /*page_size=*/512);
  constexpr int kThreads = 6;
  constexpr int kPerThread = 120;
  std::vector<std::vector<Oid>> surviving(kThreads);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        const uint8_t marker = static_cast<uint8_t>(t + 1);
        auto oid = f.store.Insert(Payload(20 + t, marker));
        if (!oid.ok()) {
          failed = true;
          return;
        }
        if (i % 3 == 0) {
          if (!f.store.Delete(*oid).ok()) failed = true;
        } else {
          surviving[static_cast<size_t>(t)].push_back(*oid);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed);
  size_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected += surviving[static_cast<size_t>(t)].size();
    for (Oid oid : surviving[static_cast<size_t>(t)]) {
      std::vector<uint8_t> out;
      ASSERT_TRUE(f.store.Read(oid, &out).ok());
      ASSERT_EQ(out, Payload(20 + t, static_cast<uint8_t>(t + 1)));
    }
  }
  EXPECT_EQ(f.store.stats().objects, expected);
  EXPECT_EQ(f.store.LiveOids().size(), expected);
}

// Lookups and listings race the table's growth: 4 threads Read/Contains a
// base set while 2 insert (growing every stripe) and delete, and 1 loops
// on LiveOids(). Every listing must be strictly ascending and hold every
// base object that stays live; the last must equal the survivors.
TEST(ObjectStoreTest, LiveOidsStayAscendingAndExactUnderGrowth) {
  Fixture f(/*frames=*/64, /*page_size=*/512, /*first_oid=*/3,
            /*oid_stride=*/4);
  constexpr int kBase = 200;
  constexpr int kWriters = 2;
  constexpr int kInsertsPerWriter = 2000;
  std::vector<Oid> base, kept;
  for (int i = 0; i < kBase; ++i) {
    auto oid = f.store.Insert(Payload(16, 0x5A));
    ASSERT_TRUE(oid.ok());
    base.push_back(*oid);
    if (i % 2 == 1) kept.push_back(*oid);  // Writers delete the even ones.
  }
  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::atomic<int> listings{0};
  std::vector<std::vector<Oid>> created(kWriters);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      LewisPayneRng rng(static_cast<uint64_t>(t) + 41);
      do {
        for (Oid oid : kept) {
          std::vector<uint8_t> out;
          if (!f.store.Read(oid, &out).ok() || out != Payload(16, 0x5A) ||
              !f.store.Contains(oid)) {
            failed = true;
          }
          // Any oid, live or not, on or off the progression.
          (void)f.store.Contains(static_cast<Oid>(rng.UniformInt(0, 6000)));
        }
      } while (!done.load() && !failed.load());
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w]() {
      for (int i = 0; i < kInsertsPerWriter && !failed.load(); ++i) {
        auto oid = f.store.Insert(Payload(16, static_cast<uint8_t>(w + 1)));
        if (!oid.ok()) {
          failed = true;
          return;
        }
        if (i % 3 == 0) {
          if (!f.store.Delete(*oid).ok()) failed = true;
        } else {
          created[static_cast<size_t>(w)].push_back(*oid);
        }
        const size_t victim = static_cast<size_t>(2 * (i * kWriters + w));
        if (victim < base.size() && !f.store.Delete(base[victim]).ok()) {
          failed = true;
        }
      }
    });
  }
  std::thread lister([&]() {
    do {
      const std::vector<Oid> live = f.store.LiveOids();
      if (std::adjacent_find(live.begin(), live.end(),
                             std::greater_equal<Oid>()) != live.end() ||
          !std::includes(live.begin(), live.end(), kept.begin(),
                         kept.end())) {
        failed = true;
      }
      listings.fetch_add(1);
    } while (!done.load() && !failed.load());
  });
  for (size_t i = 4; i < threads.size(); ++i) threads[i].join();
  done = true;
  for (size_t i = 0; i < 4; ++i) threads[i].join();
  lister.join();
  ASSERT_FALSE(failed) << "lost, unordered or mis-resolved oid";
  EXPECT_GT(listings.load(), 0);

  std::vector<Oid> survivors = kept;
  for (const auto& oids : created) {
    survivors.insert(survivors.end(), oids.begin(), oids.end());
  }
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(f.store.LiveOids(), survivors);
  EXPECT_EQ(f.store.stats().objects, survivors.size());
}

}  // namespace
}  // namespace ocb
