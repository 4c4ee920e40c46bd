// Tests for whole-database snapshot save/load.

#include "oodb/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "ocb/generator.h"
#include "ocb/protocol.h"

namespace ocb {
namespace {

StorageOptions TestOptions(size_t page_size = 4096) {
  StorageOptions opts;
  opts.page_size = page_size;
  opts.buffer_pool_pages = 32;
  return opts;
}

DatabaseParameters SmallDb() {
  DatabaseParameters p;
  p.num_classes = 5;
  p.num_objects = 300;
  p.max_nref = 4;
  p.seed = 7;
  return p;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

uint64_t U64At(const std::vector<uint8_t>& bytes, size_t at) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ = TempPath("ocb_snapshot_test.snap");
};

TEST_F(SnapshotTest, RoundTripPreservesEveryObject) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());

  Database loaded(TestOptions());
  ASSERT_TRUE(LoadSnapshot(&loaded, path_).ok());

  ASSERT_EQ(loaded.object_count(), original.object_count());
  ASSERT_EQ(loaded.schema().class_count(), original.schema().class_count());
  for (Oid oid : original.object_store()->LiveOids()) {
    auto a = original.PeekObject(oid);
    auto b = loaded.PeekObject(oid);
    ASSERT_TRUE(a.ok() && b.ok()) << "oid " << oid;
    ASSERT_EQ(a->class_id, b->class_id);
    ASSERT_EQ(a->orefs, b->orefs);
    ASSERT_EQ(a->backrefs, b->backrefs);
  }
  // Physical placement is preserved too (a snapshot must not undo
  // clustering).
  for (Oid oid : original.object_store()->LiveOids()) {
    EXPECT_EQ(original.object_store()->Locate(oid)->page_id,
              loaded.object_store()->Locate(oid)->page_id);
  }
}

TEST_F(SnapshotTest, SchemaAndExtentsSurvive) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());

  Database loaded(TestOptions());
  ASSERT_TRUE(LoadSnapshot(&loaded, path_).ok());
  for (ClassId c = 0; c < original.schema().class_count(); ++c) {
    const ClassDescriptor& x = original.schema().GetClass(c);
    const ClassDescriptor& y = loaded.schema().GetClass(c);
    EXPECT_EQ(x.maxnref, y.maxnref);
    EXPECT_EQ(x.basesize, y.basesize);
    EXPECT_EQ(x.instance_size, y.instance_size);
    EXPECT_EQ(x.tref, y.tref);
    EXPECT_EQ(x.cref, y.cref);
    EXPECT_EQ(x.iterator, y.iterator);
  }
}

TEST_F(SnapshotTest, LoadedDatabaseRunsWorkloads) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());

  Database loaded(TestOptions());
  ASSERT_TRUE(LoadSnapshot(&loaded, path_).ok());
  WorkloadParameters w;
  w.cold_transactions = 20;
  w.hot_transactions = 50;
  w.set_depth = 2;
  w.simple_depth = 2;
  ProtocolRunner runner(&loaded, w);
  auto metrics = runner.Run();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->warm.global.transactions, 50u);
}

TEST_F(SnapshotTest, LoadedDatabaseAcceptsNewObjects) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  const Oid max_before = original.object_store()->max_oid();
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());

  Database loaded(TestOptions());
  ASSERT_TRUE(LoadSnapshot(&loaded, path_).ok());
  auto fresh = loaded.CreateObject(0);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, max_before);  // Oid allocation continues, no reuse.
}

TEST_F(SnapshotTest, SaveRefusesWhileTransactionsHoldLocks) {
  // A transaction with an uncommitted write (X lock held) makes the page
  // images torn; SaveSnapshot must refuse rather than persist them.
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());
  const Oid victim = db.object_store()->LiveOids().front();

  auto txn = db.OpenSession().Begin();
  auto obj = db.PeekObject(victim);
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(txn.Put(obj.value()).ok());  // X lock held.
  EXPECT_TRUE(SaveSnapshot(&db, path_).IsInvalidArgument());

  // Quiesced (committed), the same save succeeds and loads back clean.
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(SaveSnapshot(&db, path_).ok());
  Database loaded(TestOptions());
  ASSERT_TRUE(LoadSnapshot(&loaded, path_).ok());
  EXPECT_EQ(loaded.object_count(), db.object_count());
}

TEST_F(SnapshotTest, SaveRefusesWhileReaderTransactionHoldsSLocks) {
  // Even a pure reader on the locking path pins the lock table; the
  // snapshot gate keys on held locks, not on writes.
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());
  const Oid any = db.object_store()->LiveOids().front();

  auto txn = db.OpenSession().Begin();
  ASSERT_TRUE(txn.Get(any).ok());  // S lock held.
  EXPECT_TRUE(SaveSnapshot(&db, path_).IsInvalidArgument());
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_TRUE(SaveSnapshot(&db, path_).ok());
}

TEST_F(SnapshotTest, SaveWaitsOutInFlightPagePins) {
  // Regression: snapshot during a pinned read. A raw page handle (the
  // substrate's equivalent of a reader mid-fetch) holds a pin; SaveSnapshot
  // quiesces, so it must park until the pin drains instead of flushing
  // around a latched frame — and then succeed.
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());

  std::atomic<bool> released{false};
  std::atomic<bool> pinned{false};
  std::thread reader([&]() {
    auto handle = db.buffer_pool()->FetchPage(0, LatchMode::kShared);
    ASSERT_TRUE(handle.ok());
    pinned = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    released = true;
    // Handle drops here; only now may the save's quiesce proceed.
  });
  while (!pinned.load()) std::this_thread::yield();
  ASSERT_TRUE(SaveSnapshot(&db, path_).ok());
  // The save can only have completed after the pin drained.
  EXPECT_TRUE(released.load());
  reader.join();

  Database loaded(TestOptions());
  ASSERT_TRUE(LoadSnapshot(&loaded, path_).ok());
  EXPECT_EQ(loaded.object_count(), db.object_count());
}

TEST_F(SnapshotTest, RejectsNonEmptyTarget) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());
  EXPECT_TRUE(LoadSnapshot(&original, path_).IsInvalidArgument());
}

TEST_F(SnapshotTest, RejectsPageSizeMismatch) {
  Database original(TestOptions(4096));
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());
  Database other(TestOptions(8192));
  EXPECT_TRUE(LoadSnapshot(&other, path_).IsInvalidArgument());
}

TEST_F(SnapshotTest, RejectsGarbageFile) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a snapshot", f);
  std::fclose(f);
  Database db(TestOptions());
  EXPECT_TRUE(LoadSnapshot(&db, path_).IsCorruption());
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());
  // Truncate the file to half.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path_.c_str(), size / 2), 0);
  Database db(TestOptions());
  EXPECT_TRUE(LoadSnapshot(&db, path_).IsCorruption());
}

// A snapshot cut short by three pages fails before it allocates a page,
// so the intact file then loads into the same Database (recovery's fall
// back to an older checkpoint) with every object as saved.
TEST_F(SnapshotTest, TruncatedLoadLeavesNoPagesBehind) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());
  const std::vector<uint8_t> saved = ReadFileBytes(path_);
  const size_t cut = 3 * TestOptions().page_size;
  ASSERT_GT(saved.size(), cut);
  ASSERT_TRUE(WriteFileBytes(
      path_, std::vector<uint8_t>(saved.begin(), saved.end() - cut)));

  Database db(TestOptions());
  EXPECT_TRUE(LoadSnapshot(&db, path_).IsCorruption());
  EXPECT_EQ(db.disk()->num_pages(), 0u);
  EXPECT_EQ(db.object_count(), 0u);

  ASSERT_TRUE(WriteFileBytes(path_, saved));
  ASSERT_TRUE(LoadSnapshot(&db, path_).ok());
  ASSERT_EQ(db.object_count(), original.object_count());
  for (Oid oid : original.object_store()->LiveOids()) {
    auto a = original.PeekObject(oid);
    auto b = db.PeekObject(oid);
    ASSERT_TRUE(a.ok() && b.ok()) << "oid " << oid;
    EXPECT_EQ(a->class_id, b->class_id) << "oid " << oid;
    EXPECT_EQ(a->orefs, b->orefs) << "oid " << oid;
    EXPECT_EQ(a->backrefs, b->backrefs) << "oid " << oid;
    EXPECT_EQ(a->filler_size, b->filler_size) << "oid " << oid;
  }
}

TEST_F(SnapshotTest, RejectsTargetThatHoldsPages) {
  Database original(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());
  Database db(TestOptions());
  db.disk()->AllocatePage();
  EXPECT_TRUE(LoadSnapshot(&db, path_).IsInvalidArgument());
}

// A table entry the store could not have allocated is refused at load:
// kInvalidOid, an oid off the store's progression, one at or past the
// saved next_oid (AllocateOid would hand it out again), and a duplicate.
TEST_F(SnapshotTest, RejectsTableEntriesTheStoreCannotHold) {
  StorageOptions opts = TestOptions();
  opts.first_oid = 3;  // The progression 3, 7, 11, …
  opts.oid_stride = 4;
  Database original(opts);
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &original).ok());
  ASSERT_TRUE(SaveSnapshot(&original, path_).ok());
  const std::vector<uint8_t> saved = ReadFileBytes(path_);
  ASSERT_GT(saved.size(), 24u);

  // The table sits right before the page images: u64 next_oid, u64
  // entries, then 14 bytes an entry (u64 oid, u32 page, u16 slot).
  constexpr size_t kEntryBytes = 14;
  const uint64_t entries = original.object_count();
  const size_t pages_at =
      saved.size() - static_cast<size_t>(U64At(saved, 8) * U64At(saved, 16));
  const size_t table_at = pages_at - entries * kEntryBytes;
  const Oid next_oid = original.object_store()->max_oid() + 1;
  ASSERT_EQ(U64At(saved, table_at - 16), next_oid);
  ASSERT_EQ(U64At(saved, table_at - 8), entries);

  struct Case {
    const char* name;
    size_t entry;
    Oid oid;
  };
  const Case cases[] = {
      {"kInvalidOid", 0, kInvalidOid},
      {"off the progression", 0, 5},
      {"at next_oid", 0, next_oid},
      {"duplicate", 1, U64At(saved, table_at)},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> patched = saved;
    std::memcpy(patched.data() + table_at + c.entry * kEntryBytes, &c.oid,
                sizeof(Oid));
    ASSERT_TRUE(WriteFileBytes(path_, patched));
    Database db(opts);
    EXPECT_TRUE(LoadSnapshot(&db, path_).IsCorruption()) << c.name;
  }
  ASSERT_TRUE(WriteFileBytes(path_, saved));
  Database db(opts);
  EXPECT_TRUE(LoadSnapshot(&db, path_).ok());
  EXPECT_EQ(db.LiveOidsSnapshot(), original.LiveOidsSnapshot());
}

TEST_F(SnapshotTest, MissingFileIsIOError) {
  Database db(TestOptions());
  EXPECT_TRUE(LoadSnapshot(&db, TempPath("missing.snap")).IsIOError());
}

}  // namespace
}  // namespace ocb
