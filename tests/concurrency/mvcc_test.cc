// MVCC snapshot-read tests through the Session API: ReadView pinning
// (repeatable read across a concurrent committed update), snapshot
// consistency across objects (write-skew-free read-only transactions),
// visibility of creations and deletions, write refusal, non-blocking
// reads against an in-flight writer, and version-chain garbage
// collection once the oldest ReadView closes.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "engine/session.h"
#include "oodb/database.h"

namespace ocb {
namespace {

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 16;
  return opts;
}

Schema TwoClassSchema() {
  Schema schema;
  schema.SetRefTypes(Schema::DefaultTraits(3));
  ClassDescriptor a;
  a.id = 0;
  a.maxnref = 3;
  a.basesize = 40;
  a.instance_size = 40;
  a.tref = {2, 2, 2};
  a.cref = {1, 1, 0};
  ClassDescriptor b;
  b.id = 1;
  b.maxnref = 2;
  b.basesize = 20;
  b.instance_size = 20;
  b.tref = {2, 2};
  b.cref = {0, 0};
  Schema out = std::move(schema);
  EXPECT_TRUE(out.AddClass(std::move(a)).ok());
  EXPECT_TRUE(out.AddClass(std::move(b)).ok());
  return out;
}

class MvccTest : public ::testing::Test {
 protected:
  MvccTest() : db_(TestOptions()) {
    db_.SetSchema(TwoClassSchema());
    source_ = *db_.CreateObject(0);
    target1_ = *db_.CreateObject(1);
    target2_ = *db_.CreateObject(1);
  }

  Transaction BeginWriter() { return db_.OpenSession().Begin(); }
  Transaction BeginReader() {
    return db_.OpenSession().Begin(TxnMode::kSnapshotRead);
  }

  Database db_;
  Oid source_ = kInvalidOid;
  Oid target1_ = kInvalidOid;
  Oid target2_ = kInvalidOid;
};

TEST_F(MvccTest, RepeatableReadAcrossConcurrentCommit) {
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());

  // Reader pins its ReadView before the writer changes anything.
  auto reader = BeginReader();
  auto first = reader.Get(source_);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->orefs[0], target1_);

  // A writer retargets the reference and commits.
  auto writer = BeginWriter();
  ASSERT_TRUE(writer.SetReference(source_, 0, target2_).ok());
  ASSERT_TRUE(writer.Commit().ok());
  auto now = db_.PeekObject(source_);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->orefs[0], target2_);  // The commit really landed.

  // The pinned reader re-reads the old version — repeatable read.
  auto second = reader.Get(source_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->orefs[0], target1_);
  EXPECT_GE(reader.snapshot_reads(), 2u);
  ASSERT_TRUE(reader.Commit().ok());

  // A ReadView born after the commit sees the new state.
  auto later = BeginReader();
  auto third = later.Get(source_);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->orefs[0], target2_);
  ASSERT_TRUE(later.Commit().ok());
}

TEST_F(MvccTest, SnapshotIsConsistentAcrossObjects) {
  // A reader must never see a committed multi-object write half-applied
  // (the read-only flavour of write-skew freedom): both reads resolve at
  // the ReadView even when the writer commits between them.
  auto reader = BeginReader();
  auto t1_before = reader.Get(target1_);
  ASSERT_TRUE(t1_before.ok());
  EXPECT_TRUE(t1_before->backrefs.empty());

  // Writer links source→target1 and source→target2 in one transaction:
  // both backref arrays change together.
  auto writer = BeginWriter();
  ASSERT_TRUE(writer.SetReference(source_, 0, target1_).ok());
  ASSERT_TRUE(writer.SetReference(source_, 1, target2_).ok());
  ASSERT_TRUE(writer.Commit().ok());

  // The reader's second object still shows the pre-transaction world,
  // matching its first read.
  auto t2_after = reader.Get(target2_);
  ASSERT_TRUE(t2_after.ok());
  EXPECT_TRUE(t2_after->backrefs.empty());
  auto src = reader.Get(source_);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src->orefs[0], kInvalidOid);
  EXPECT_EQ(src->orefs[1], kInvalidOid);
  ASSERT_TRUE(reader.Commit().ok());
}

TEST_F(MvccTest, SnapshotReadDoesNotBlockOnInFlightWriter) {
  // The writer holds an X lock with an uncommitted write; a 2PL reader
  // would block until commit, a snapshot reader returns immediately with
  // the committed pre-image.
  auto writer = BeginWriter();
  auto obj = db_.PeekObject(source_);
  ASSERT_TRUE(obj.ok());
  obj->orefs[2] = target2_;
  ASSERT_TRUE(writer.Put(obj.value()).ok());

  auto reader = BeginReader();
  auto seen = reader.Get(source_);
  ASSERT_TRUE(seen.ok());  // No wait, no deadlock, no abort.
  EXPECT_EQ(seen->orefs[2], kInvalidOid);  // Dirty write invisible.
  EXPECT_EQ(reader.lock_wait_nanos(), 0u);
  ASSERT_TRUE(reader.Commit().ok());
  ASSERT_TRUE(writer.Commit().ok());
}

TEST_F(MvccTest, AbortedWriterLeavesSnapshotsUnperturbed) {
  auto reader = BeginReader();
  auto writer = BeginWriter();
  auto obj = db_.PeekObject(source_);
  ASSERT_TRUE(obj.ok());
  obj->orefs[0] = target1_;
  ASSERT_TRUE(writer.Put(obj.value()).ok());
  ASSERT_TRUE(writer.Abort().ok());

  auto seen = reader.Get(source_);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->orefs[0], kInvalidOid);
  ASSERT_TRUE(reader.Commit().ok());

  // The discarded pending version left no garbage behind.
  db_.CollectVersionGarbage();
  EXPECT_EQ(db_.version_store()->stats().live_versions, 0u);
}

TEST_F(MvccTest, CreationInvisibleToOlderSnapshots) {
  auto reader = BeginReader();

  auto writer = BeginWriter();
  auto created = writer.Create(1);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(writer.Commit().ok());

  // Born-before reader: the object does not exist at its snapshot.
  EXPECT_TRUE(reader.Get(*created).status().IsNotFound());
  ASSERT_TRUE(reader.Commit().ok());

  // Born-after reader sees it.
  auto later = BeginReader();
  EXPECT_TRUE(later.Get(*created).ok());
  ASSERT_TRUE(later.Commit().ok());
}

TEST_F(MvccTest, DeletionKeepsObjectVisibleToOlderSnapshots) {
  ASSERT_TRUE(db_.SetReference(source_, 0, target1_).ok());
  auto reader = BeginReader();

  auto writer = BeginWriter();
  ASSERT_TRUE(writer.Delete(target1_).ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_FALSE(db_.ContainsObject(target1_));

  // The pinned reader still reads the deleted object's last committed
  // state through its version chain.
  auto seen = reader.Get(target1_);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->class_id, 1u);
  ASSERT_TRUE(reader.Commit().ok());

  // Born-after reader: gone.
  auto later = BeginReader();
  EXPECT_TRUE(later.Get(target1_).status().IsNotFound());
  ASSERT_TRUE(later.Commit().ok());
}

TEST_F(MvccTest, WritesThroughReadOnlyTxnAreRefused) {
  auto reader = BeginReader();
  EXPECT_TRUE(reader.Create(0).status().IsInvalidArgument());
  EXPECT_TRUE(
      reader.SetReference(source_, 0, target1_).IsInvalidArgument());
  auto obj = db_.PeekObject(source_);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(reader.Put(obj.value()).IsInvalidArgument());
  EXPECT_TRUE(reader.Delete(source_).IsInvalidArgument());
  WriteBatch batch;
  batch.Put(obj.value());
  EXPECT_TRUE(
      reader.Apply(std::move(batch)).status().IsInvalidArgument());
  // The refusals poisoned nothing: the txn still reads and commits.
  EXPECT_TRUE(reader.Get(source_).ok());
  EXPECT_TRUE(reader.Commit().ok());
  EXPECT_EQ(db_.lock_manager()->locked_object_count(), 0u);
}

TEST_F(MvccTest, GcReclaimsChainsOnceOldestReadViewCloses) {
  auto reader = BeginReader();

  // Three committed writes to the same object build a chain.
  for (Oid to : {target1_, target2_, target1_}) {
    auto writer = BeginWriter();
    ASSERT_TRUE(writer.SetReference(source_, 0, to).ok());
    ASSERT_TRUE(writer.Commit().ok());
  }
  EXPECT_GE(db_.version_store()->stats().live_versions, 3u);

  // While the reader lives, its snapshot holds the whole history back —
  // even an explicit GC pass (and the background thread) must keep every
  // version newer than the pinned snapshot.
  db_.CollectVersionGarbage();
  EXPECT_GE(db_.version_store()->stats().live_versions, 3u);
  auto seen = reader.Get(source_);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->orefs[0], kInvalidOid);  // Pre-history state.
  ASSERT_TRUE(reader.Commit().ok());

  // With the oldest (only) ReadView closed, everything is reclaimable.
  db_.CollectVersionGarbage();
  const VersionStoreStats stats = db_.version_store()->stats();
  EXPECT_EQ(stats.live_versions, 0u);
  EXPECT_EQ(stats.live_chains, 0u);
  EXPECT_GE(stats.versions_gced, 3u);
  EXPECT_EQ(db_.read_views()->open_count(), 0u);
}

TEST_F(MvccTest, OldestReadViewGatesGcUnderStaggeredReaders) {
  auto old_reader = BeginReader();

  auto writer = BeginWriter();
  ASSERT_TRUE(writer.SetReference(source_, 0, target1_).ok());
  ASSERT_TRUE(writer.Commit().ok());

  auto young_reader = BeginReader();

  // Closing the *young* view must not unpin history the old one needs.
  ASSERT_TRUE(young_reader.Commit().ok());
  db_.CollectVersionGarbage();
  auto seen = old_reader.Get(source_);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen->orefs[0], kInvalidOid);

  ASSERT_TRUE(old_reader.Commit().ok());
  db_.CollectVersionGarbage();
  EXPECT_EQ(db_.version_store()->stats().live_versions, 0u);
}

}  // namespace
}  // namespace ocb
