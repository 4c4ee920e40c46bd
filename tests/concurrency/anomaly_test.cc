// Isolation-anomaly battery across the three concurrency-control
// algorithms (the writer TxnMode): lost update, write skew, dirty read,
// non-repeatable read, the read-only (pure-reader validation) anomaly,
// and the extent-membership (phantom) race. Expected outcomes:
//
//   * strict 2PL forbids every anomaly it can see through locks (lost
//     update, write skew, dirty read, non-repeatable read); extent scans
//     are live (phantoms possible — the documented baseline);
//   * snapshot isolation forbids all of them EXCEPT write skew, which it
//     admits by construction (disjoint write sets validate first-
//     committer-wins independently) — the admission is *proved* here;
//   * Silo OCC forbids all of them, including phantom scans (extent
//     version validation) and broken pure-reader reads.
//
// Conflicts surface as Status::Aborted (2PL deadlock victim) or
// Status::WriteConflict (SI/OCC validation loss).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "oodb/database.h"

namespace ocb {
namespace {

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 32;
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

/// A conflict loss: 2PL deadlock victim or SI/OCC validation failure.
bool IsConflict(const Status& st) {
  return st.IsAborted() || st.IsWriteConflict();
}

class AnomalyTest : public ::testing::TestWithParam<TxnMode> {
 protected:
  AnomalyTest() : db_(TestOptions()) {
    db_.SetSchema(TwoClassSchema());
    a_ = *db_.CreateObject(0);
    b_ = *db_.CreateObject(0);
    mark1_ = *db_.CreateObject(1);
    mark2_ = *db_.CreateObject(1);
  }

  Transaction BeginWith(TxnMode mode) {
    return db_.OpenSession().Begin(mode);
  }

  /// Sets orefs[0] of \p oid to \p value through a plain 2PL txn.
  void Store(Oid oid, Oid value) {
    auto txn = db_.OpenSession().Begin();
    auto obj = txn.Get(oid);
    ASSERT_TRUE(obj.ok());
    obj->orefs[0] = value;
    ASSERT_TRUE(txn.Put(obj.value()).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  Oid Load(Oid oid) {
    auto obj = db_.PeekObject(oid);
    EXPECT_TRUE(obj.ok());
    return obj->orefs[0];
  }

  Database db_;
  Oid a_ = kInvalidOid;
  Oid b_ = kInvalidOid;
  Oid mark1_ = kInvalidOid;
  Oid mark2_ = kInvalidOid;
};

// --- Lost update: forbidden under ALL three algorithms -------------------

TEST_P(AnomalyTest, LostUpdateExactlyOneWinner) {
  // Both clients read A, then write their own mark back — the classic
  // lost-update race. 2PL: both hold S, the X upgrades deadlock, one
  // victim. SI: both buffer, first committer wins, the second fails
  // first-committer-wins validation. OCC: the second committer's read
  // stamp changed. In every case exactly one mark survives and the
  // loser KNOWS it lost (typed failure) — no silent overwrite.
  std::atomic<int> ready{0};
  std::atomic<int> losers{0};
  std::vector<Oid> committed(2, kInvalidOid);

  auto client = [&](int idx, Oid mark) {
    auto txn = BeginWith(GetParam());
    auto obj = txn.Get(a_);
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    obj->orefs[0] = mark;
    Status st = txn.Put(obj.value());
    if (st.ok()) st = txn.Commit();
    if (!st.ok()) {
      ASSERT_TRUE(IsConflict(st)) << st.ToString();
      losers.fetch_add(1);
      (void)txn.Abort();  // Idempotent after an internal abort.
      return;
    }
    committed[static_cast<size_t>(idx)] = mark;
  };

  std::thread c1(client, 0, mark1_);
  std::thread c2(client, 1, mark2_);
  c1.join();
  c2.join();

  EXPECT_EQ(losers.load(), 1) << "exactly one transaction loses the race";
  const Oid winner =
      committed[0] != kInvalidOid ? committed[0] : committed[1];
  ASSERT_NE(winner, kInvalidOid);
  EXPECT_EQ(Load(a_), winner) << "the winner's write survived";
}

// --- Dirty read: never visible under any algorithm -----------------------

TEST_P(AnomalyTest, DirtyWriteNeverVisible) {
  // A 2PL writer rewrites A in place and holds its X lock; a concurrent
  // transaction under the algorithm under test reads A. SI/OCC read
  // through the version store (the writer's pending pre-image shields
  // them) without blocking; a 2PL reader blocks on the S lock until the
  // writer aborts. Either way the dirty value is never observed.
  auto writer = db_.OpenSession().Begin();
  auto dirty = writer.Get(a_);
  ASSERT_TRUE(dirty.ok());
  dirty->orefs[0] = mark1_;
  ASSERT_TRUE(writer.Put(dirty.value()).ok());  // In place, uncommitted.

  if (GetParam() == TxnMode::k2PL) {
    std::atomic<bool> read_done{false};
    Oid seen = mark1_;  // Poisoned default: test fails if never assigned.
    std::thread reader([&] {
      auto txn = BeginWith(TxnMode::k2PL);
      auto obj = txn.Get(a_);  // Blocks behind the writer's X.
      if (obj.ok()) seen = obj->orefs[0];
      read_done.store(true);
      EXPECT_TRUE(txn.Commit().ok());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(read_done.load()) << "2PL reader must block on the X lock";
    ASSERT_TRUE(writer.Abort().ok());
    reader.join();
    EXPECT_EQ(seen, kInvalidOid) << "only the rolled-back state is visible";
  } else {
    auto txn = BeginWith(GetParam());
    auto obj = txn.Get(a_);  // Never blocks: snapshot / committed-latest.
    ASSERT_TRUE(obj.ok()) << obj.status().ToString();
    EXPECT_EQ(obj->orefs[0], kInvalidOid) << "dirty in-place write leaked";
    ASSERT_TRUE(writer.Abort().ok());
    auto again = txn.Get(a_);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->orefs[0], kInvalidOid);
    EXPECT_TRUE(txn.Commit().ok()) << "clean reads validate";
  }
}

// --- Non-repeatable read -------------------------------------------------

TEST_P(AnomalyTest, NonRepeatableReadForbidden) {
  if (GetParam() == TxnMode::k2PL) {
    // T1's S lock blocks the overwriter until T1 finishes: both reads
    // inside T1 necessarily agree.
    auto t1 = BeginWith(TxnMode::k2PL);
    auto first = t1.Get(a_);
    ASSERT_TRUE(first.ok());
    std::thread overwriter([&] {
      auto t2 = db_.OpenSession().Begin();
      auto obj = t2.Get(a_);
      ASSERT_TRUE(obj.ok());
      obj->orefs[0] = mark1_;
      Status st = t2.Put(obj.value());  // Blocks behind T1's S.
      if (st.ok()) {
        EXPECT_TRUE(t2.Commit().ok());
      } else {
        EXPECT_TRUE(st.IsAborted()) << st.ToString();
        (void)t2.Abort();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto second = t1.Get(a_);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(first->orefs[0], second->orefs[0]);
    EXPECT_TRUE(t1.Commit().ok());
    overwriter.join();
    return;
  }

  auto t1 = BeginWith(GetParam());
  auto first = t1.Get(a_);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->orefs[0], kInvalidOid);

  Store(a_, mark1_);  // A committed overwrite between T1's two reads.

  auto second = t1.Get(a_);
  if (GetParam() == TxnMode::kSI) {
    // SI re-reads the pinned snapshot: same value, and the transaction
    // commits fine (its write set is empty — nothing to validate).
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->orefs[0], kInvalidOid);
    EXPECT_TRUE(t1.Commit().ok());
  } else {
    // OCC reads committed-latest, so the re-read CANNOT return the same
    // value — instead it fails fast with WriteConflict (the recorded
    // stamp changed; this transaction can never validate).
    ASSERT_FALSE(second.ok());
    EXPECT_TRUE(second.status().IsWriteConflict())
        << second.status().ToString();
    Status st = t1.Commit();
    EXPECT_TRUE(st.IsWriteConflict()) << st.ToString();
  }
}

// --- Write skew: SI admits it, 2PL and OCC forbid it ---------------------
//
// Constraint: "at least one of A.orefs[0], B.orefs[0] is set". Each
// transaction reads BOTH objects, sees the constraint holds with slack,
// and clears its own side — write sets disjoint, read sets intersecting.

class WriteSkewTest : public AnomalyTest {
 protected:
  void SetUp() override {
    Store(a_, mark1_);
    Store(b_, mark2_);
  }

  /// Reads both objects through \p txn and clears \p victim's slot.
  Status ReadBothClearOne(Transaction& txn, Oid victim) {
    auto oa = txn.Get(a_);
    if (!oa.ok()) return oa.status();
    auto ob = txn.Get(b_);
    if (!ob.ok()) return ob.status();
    EXPECT_TRUE(oa->orefs[0] != kInvalidOid || ob->orefs[0] != kInvalidOid);
    Object cleared = victim == a_ ? oa.value() : ob.value();
    cleared.orefs[0] = kInvalidOid;
    return txn.Put(cleared);
  }

  bool ConstraintHolds() {
    return Load(a_) != kInvalidOid || Load(b_) != kInvalidOid;
  }
};

TEST_F(WriteSkewTest, SnapshotIsolationAdmitsWriteSkew) {
  // Single-threaded interleaving is enough: SI reads never block and
  // writes are buffered. Both transactions validate first-committer-wins
  // over DISJOINT write sets, so both commit — and the cleared-both
  // final state violates the constraint. This is the admission proof.
  auto t1 = BeginWith(TxnMode::kSI);
  auto t2 = BeginWith(TxnMode::kSI);
  ASSERT_TRUE(ReadBothClearOne(t1, a_).ok());
  ASSERT_TRUE(ReadBothClearOne(t2, b_).ok());
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().ok()) << "SI must admit write skew";
  EXPECT_FALSE(ConstraintHolds())
      << "both sides cleared: the write-skew anomaly materialized";
}

TEST_F(WriteSkewTest, SiloOccForbidsWriteSkew) {
  // Same interleaving under OCC: T2's read of A is invalidated by T1's
  // commit, so T2's read-set validation fails. Serializability restored.
  auto t1 = BeginWith(TxnMode::kOCC);
  auto t2 = BeginWith(TxnMode::kOCC);
  ASSERT_TRUE(ReadBothClearOne(t1, a_).ok());
  ASSERT_TRUE(ReadBothClearOne(t2, b_).ok());
  EXPECT_TRUE(t1.Commit().ok());
  Status st = t2.Commit();
  EXPECT_TRUE(st.IsWriteConflict()) << st.ToString();
  EXPECT_TRUE(ConstraintHolds()) << "OCC preserved the constraint";
}

TEST_F(WriteSkewTest, Strict2PlForbidsWriteSkew) {
  // Under 2PL both hold S on {A, B}; the crossing X upgrades deadlock
  // and exactly one side rolls back — the constraint survives.
  std::atomic<int> ready{0};
  std::atomic<int> losers{0};
  auto client = [&](Oid victim) {
    auto txn = BeginWith(TxnMode::k2PL);
    auto oa = txn.Get(a_);
    ASSERT_TRUE(oa.ok());
    auto ob = txn.Get(b_);
    ASSERT_TRUE(ob.ok());
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    Object cleared = victim == a_ ? oa.value() : ob.value();
    cleared.orefs[0] = kInvalidOid;
    Status st = txn.Put(cleared);
    if (st.ok()) st = txn.Commit();
    if (!st.ok()) {
      EXPECT_TRUE(st.IsAborted()) << st.ToString();
      losers.fetch_add(1);
      (void)txn.Abort();
    }
  };
  std::thread c1(client, a_);
  std::thread c2(client, b_);
  c1.join();
  c2.join();
  EXPECT_GE(losers.load(), 1) << "2PL must refuse at least one side";
  EXPECT_TRUE(ConstraintHolds()) << "2PL preserved the constraint";
}

// --- Read-only anomaly: pure-reader validation under OCC -----------------

TEST_F(WriteSkewTest, OccPureReaderNeverObservesBrokenReads) {
  // T reads A, then a concurrent transaction commits writes to BOTH A
  // and B, then T reads B: old-A + new-B is not a state that ever
  // existed. A Silo transaction validates its read set even with an
  // empty write set, so T's commit is refused — it never vouches for
  // the broken view.
  auto t = BeginWith(TxnMode::kOCC);
  auto oa = t.Get(a_);
  ASSERT_TRUE(oa.ok());
  EXPECT_EQ(oa->orefs[0], mark1_);

  {  // Writes BOTH objects in one committed transaction.
    auto w = db_.OpenSession().Begin();
    auto wa = w.Get(a_);
    ASSERT_TRUE(wa.ok());
    wa->orefs[0] = kInvalidOid;
    ASSERT_TRUE(w.Put(wa.value()).ok());
    auto wb = w.Get(b_);
    ASSERT_TRUE(wb.ok());
    wb->orefs[0] = kInvalidOid;
    ASSERT_TRUE(w.Put(wb.value()).ok());
    ASSERT_TRUE(w.Commit().ok());
  }

  auto ob = t.Get(b_);  // Committed-latest: the NEW (cleared) B.
  ASSERT_TRUE(ob.ok());
  EXPECT_EQ(ob->orefs[0], kInvalidOid);
  // The combination {old A, new B} is inconsistent; commit must refuse.
  Status st = t.Commit();
  EXPECT_TRUE(st.IsWriteConflict()) << st.ToString();
}

TEST_F(WriteSkewTest, SiReaderAlwaysSeesConsistentCut) {
  // The SI counterpart: both reads resolve against the pinned snapshot,
  // so the view is a consistent cut by construction and commit is fine.
  auto t = BeginWith(TxnMode::kSI);
  auto oa = t.Get(a_);
  ASSERT_TRUE(oa.ok());

  {
    auto w = db_.OpenSession().Begin();
    auto wa = w.Get(a_);
    ASSERT_TRUE(wa.ok());
    wa->orefs[0] = kInvalidOid;
    ASSERT_TRUE(w.Put(wa.value()).ok());
    auto wb = w.Get(b_);
    ASSERT_TRUE(wb.ok());
    wb->orefs[0] = kInvalidOid;
    ASSERT_TRUE(w.Put(wb.value()).ok());
    ASSERT_TRUE(w.Commit().ok());
  }

  auto ob = t.Get(b_);
  ASSERT_TRUE(ob.ok());
  EXPECT_EQ(oa->orefs[0], mark1_);
  EXPECT_EQ(ob->orefs[0], mark2_) << "snapshot: both values pre-commit";
  EXPECT_TRUE(t.Commit().ok());
}

// --- Extent-membership race (phantom scans) ------------------------------

TEST_F(WriteSkewTest, ExtentRaceOccAbortsOnPhantom) {
  // T scans class 0's extent (recording its version), a concurrent
  // create commits a new member, T writes something and commits: the
  // extent version moved, so validation refuses — T's scan-derived
  // decision never coexists with the phantom.
  auto t = BeginWith(TxnMode::kOCC);
  const size_t members = t.ExtentSnapshot(0).size();
  EXPECT_GE(members, 2u);

  {  // Phantom insert.
    auto w = db_.OpenSession().Begin();
    ASSERT_TRUE(w.Create(0).ok());
    ASSERT_TRUE(w.Commit().ok());
  }

  auto oa = t.Get(a_);
  ASSERT_TRUE(oa.ok());
  oa->orefs[1] = mark2_;
  ASSERT_TRUE(t.Put(oa.value()).ok());
  Status st = t.Commit();
  EXPECT_TRUE(st.IsWriteConflict()) << st.ToString();
}

TEST_F(WriteSkewTest, ExtentRaceSiScanIsRepeatable) {
  // SI writers filter extents at their snapshot: the concurrent create
  // never appears, and a re-scan returns the same membership.
  auto t = BeginWith(TxnMode::kSI);
  const std::vector<Oid> before = t.ExtentSnapshot(0);

  {
    auto w = db_.OpenSession().Begin();
    ASSERT_TRUE(w.Create(0).ok());
    ASSERT_TRUE(w.Commit().ok());
  }

  const std::vector<Oid> after = t.ExtentSnapshot(0);
  EXPECT_EQ(before, after) << "SI extent scans are repeatable";
  EXPECT_TRUE(t.Commit().ok());

  // And an SI writer's OWN creation is visible to its re-scan.
  auto t2 = BeginWith(TxnMode::kSI);
  const size_t base = t2.ExtentSnapshot(0).size();
  auto created = t2.Create(0);
  ASSERT_TRUE(created.ok());
  const std::vector<Oid> with_own = t2.ExtentSnapshot(0);
  EXPECT_EQ(with_own.size(), base + 1);
  EXPECT_NE(std::find(with_own.begin(), with_own.end(), *created),
            with_own.end());
  EXPECT_TRUE(t2.Commit().ok());
}

TEST_F(WriteSkewTest, ExtentRaceStrict2PlScansLive) {
  // The documented 2PL baseline: extent scans read live membership, so
  // a committed concurrent create IS visible to the second scan (2PL
  // takes no extent locks — phantom protection is SI/OCC territory).
  auto t = BeginWith(TxnMode::k2PL);
  const size_t before = t.ExtentSnapshot(0).size();
  {
    auto w = db_.OpenSession().Begin();
    ASSERT_TRUE(w.Create(0).ok());
    ASSERT_TRUE(w.Commit().ok());
  }
  EXPECT_EQ(t.ExtentSnapshot(0).size(), before + 1);
  EXPECT_TRUE(t.Commit().ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AnomalyTest,
    ::testing::Values(TxnMode::k2PL, TxnMode::kSI, TxnMode::kOCC),
    [](const ::testing::TestParamInfo<TxnMode>& info) {
      switch (info.param) {
        case TxnMode::k2PL:
          return std::string("Strict2PL");
        case TxnMode::kSI:
          return std::string("SnapshotIsolation");
        case TxnMode::kOCC:
          return std::string("SiloOCC");
        case TxnMode::kSnapshotRead:
          break;  // Readers are not a writer scheme under test.
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace ocb
