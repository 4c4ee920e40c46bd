// Conserved-quantity stress for every concurrency-control algorithm
// (the writer TxnMode), single-shard and sharded. A population of objects
// holds "tokens" (non-null oref slots); writer threads transfer tokens
// between randomly chosen objects — clear a slot in the donor, set a
// slot in the recipient, one transaction — retrying on conflict. The
// invariant: the total token count never changes. A concurrent checker
// thread sums the population through read-only snapshot transactions
// and must see the exact total on every scan (a torn read — donor
// cleared without recipient set, or both set — shifts the sum by one).
//
// What each algorithm is being asked to prove here:
//   * strict 2PL: upgrades deadlock under crossing transfers; victims
//     retry; no update is ever lost;
//   * snapshot isolation: first-committer-wins over the two-object
//     write set; buffered writes apply atomically at commit;
//   * Silo OCC: read-stamp validation catches every raced transfer,
//     including the fail-fast re-read path.
// The snapshot checker holds all three to the same bar: transfers are
// atomic or invisible, never half-applied.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "oodb/database.h"
#include "sharding/sharded_database.h"

namespace ocb {
namespace {

constexpr size_t kObjects = 16;
constexpr int kWriterThreads = 4;
constexpr int kTransfersPerThread = 40;
constexpr int kMaxAttemptsPerTransfer = 2000;

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 64;
  return opts;
}

Schema TokenSchema() {
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

bool IsConflict(const Status& st) {
  return st.IsAborted() || st.IsWriteConflict();
}

size_t CountTokens(const Object& obj) {
  size_t n = 0;
  for (Oid ref : obj.orefs) {
    if (ref != kInvalidOid) ++n;
  }
  return n;
}

/// Seeds kObjects class-0 objects, each holding one token in slot 0
/// (pointing at a shared class-1 marker), and returns their oids.
template <typename DB>
std::vector<Oid> SeedPopulation(DB& db) {
  std::vector<Oid> oids;
  oids.reserve(kObjects);
  for (size_t i = 0; i < kObjects; ++i) {
    auto oid = db.CreateObject(0);
    EXPECT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  const Oid mark = *db.CreateObject(1);
  auto txn = db.OpenSession().Begin();
  for (Oid oid : oids) {
    auto obj = txn.Get(oid);
    EXPECT_TRUE(obj.ok());
    obj->orefs[0] = mark;
    EXPECT_TRUE(txn.Put(obj.value()).ok());
  }
  EXPECT_TRUE(txn.Commit().ok());
  return oids;
}

/// One transfer attempt: move a token from \p donor to \p recipient.
/// Returns OK on success, NotFound when the pair has no capacity (donor
/// empty or recipient full — not a conflict, pick another pair), or the
/// conflict status.
template <typename Session>
Status TryTransfer(Session session, TxnMode cc, Oid donor,
                   Oid recipient) {
  auto txn = session.Begin(cc);
  auto from = txn.Get(donor);
  if (!from.ok()) {
    (void)txn.Abort();
    return from.status();
  }
  auto to = txn.Get(recipient);
  if (!to.ok()) {
    (void)txn.Abort();
    return to.status();
  }
  int give = -1;
  int take = -1;
  for (size_t s = 0; s < from->orefs.size(); ++s) {
    if (from->orefs[s] != kInvalidOid) give = static_cast<int>(s);
  }
  for (size_t s = 0; s < to->orefs.size(); ++s) {
    if (to->orefs[s] == kInvalidOid) take = static_cast<int>(s);
  }
  if (give < 0 || take < 0) {
    (void)txn.Abort();
    return Status::NotFound("no capacity");
  }
  const Oid token = from->orefs[static_cast<size_t>(give)];
  from->orefs[static_cast<size_t>(give)] = kInvalidOid;
  to->orefs[static_cast<size_t>(take)] = token;
  Status st = txn.Put(from.value());
  if (st.ok()) st = txn.Put(to.value());
  if (st.ok()) st = txn.Commit();
  if (!st.ok()) (void)txn.Abort();
  return st;
}

/// Drives the full stress: writers transfer, a checker scans through
/// read-only snapshot transactions asserting the conserved total.
template <typename DB>
void RunConservedTransferStress(DB& db, TxnMode cc) {
  const std::vector<Oid> oids = SeedPopulation(db);
  std::atomic<bool> done{false};
  std::atomic<int> transfers{0};
  std::atomic<int> conflicts{0};

  std::thread checker([&] {
    size_t scans = 0;
    // At least one scan even when the writers finish before this thread
    // is first scheduled (a short run on a multi-core host).
    do {
      auto txn = db.OpenSession().Begin(TxnMode::kSnapshotRead);
      size_t total = 0;
      for (Oid oid : oids) {
        auto obj = txn.Get(oid);
        ASSERT_TRUE(obj.ok()) << obj.status().ToString();
        total += CountTokens(obj.value());
      }
      EXPECT_TRUE(txn.Commit().ok());
      ASSERT_EQ(total, kObjects)
          << "torn read after " << scans << " clean scans under "
          << TxnModeToString(cc);
      ++scans;
      std::this_thread::yield();
    } while (!done.load(std::memory_order_acquire));
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriterThreads);
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(1000 + t));
      std::uniform_int_distribution<size_t> pick(0, oids.size() - 1);
      int ok = 0;
      int attempts = 0;
      while (ok < kTransfersPerThread) {
        if (++attempts > kMaxAttemptsPerTransfer) {
          ADD_FAILURE() << "livelock: thread " << t << " stuck at " << ok
                        << " transfers under " << TxnModeToString(cc);
          break;
        }
        const size_t i = pick(rng);
        size_t j = pick(rng);
        if (j == i) j = (j + 1) % oids.size();
        Status st = TryTransfer(db.OpenSession(), cc, oids[i], oids[j]);
        if (st.ok()) {
          ++ok;
        } else if (IsConflict(st)) {
          conflicts.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(st.IsNotFound()) << st.ToString();
        }
      }
      transfers.fetch_add(ok, std::memory_order_relaxed);
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_release);
  checker.join();

  EXPECT_EQ(transfers.load(), kWriterThreads * kTransfersPerThread);

  // Final-state audit outside any transaction.
  size_t total = 0;
  for (Oid oid : oids) {
    auto obj = db.PeekObject(oid);
    ASSERT_TRUE(obj.ok());
    total += CountTokens(obj.value());
  }
  EXPECT_EQ(total, kObjects) << "tokens leaked or duplicated under "
                             << TxnModeToString(cc);
}

class CcStressTest : public ::testing::TestWithParam<TxnMode> {};

TEST_P(CcStressTest, SingleShardConservedTransfers) {
  Database db(TestOptions());
  db.SetSchema(TokenSchema());
  RunConservedTransferStress(db, GetParam());
}

TEST_P(CcStressTest, ShardedConservedTransfers) {
  // Four shards, round-robin placement: most transfers cross shards, so
  // SI/OCC finalization and validation run under two-phase commit and
  // the checker's consistent global snapshot does the torn-read audit.
  ShardedDatabase db(TestOptions(), 4);
  db.SetSchema(TokenSchema());
  RunConservedTransferStress(db, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CcStressTest,
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
