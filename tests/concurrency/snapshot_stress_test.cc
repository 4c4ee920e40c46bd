// N-thread snapshot-consistency stress: writer threads transfer units of
// a conserved quantity between "account" objects inside 2PL transactions
// (deadlock victims roll back), while reader threads sum the quantity over
// every account through MVCC snapshot reads. Money conservation is the
// torn-read detector: any reader that observes a half-applied transfer —
// from an in-flight writer, an interleaved commit, or a rolled-back
// victim — reports a wrong total and fails the test.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/session.h"
#include "oodb/database.h"
#include "util/rng.h"

namespace ocb {
namespace {

constexpr uint32_t kAccounts = 24;
constexpr uint32_t kInitialBalance = 100;  // Stored as filler_size.
constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kTransfersPerWriter = 200;
constexpr int kSumsPerReader = 150;

// Generous page size: balances drift, and an account must never outgrow
// the largest record a page can hold (writers also cap balances below).
StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 4096;
  opts.buffer_pool_pages = 64;
  return opts;
}

Schema AccountSchema() {
  Schema schema;
  schema.SetRefTypes(Schema::DefaultTraits(1));
  ClassDescriptor account;
  account.id = 0;
  account.maxnref = 1;
  account.basesize = kInitialBalance;
  account.instance_size = kInitialBalance;
  account.tref = {0};
  account.cref = {kNullClass};
  Schema out = std::move(schema);
  EXPECT_TRUE(out.AddClass(std::move(account)).ok());
  return out;
}

TEST(SnapshotStressTest, ReadersAlwaysSeeTheConservedTotal) {
  Database db(TestOptions());
  db.SetSchema(AccountSchema());

  std::vector<Oid> accounts;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    auto oid = db.CreateObject(0);
    ASSERT_TRUE(oid.ok());
    accounts.push_back(*oid);
  }
  const uint64_t kTotal =
      static_cast<uint64_t>(kAccounts) * kInitialBalance;

  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<bool> torn{false};
  std::atomic<bool> failed{false};

  auto writer = [&](int id) {
    auto session = db.OpenSession();
    LewisPayneRng rng(static_cast<uint64_t>(id) + 17);
    for (int i = 0; i < kTransfersPerWriter && !failed; ++i) {
      const size_t a = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kAccounts) - 1));
      size_t b = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(kAccounts) - 2));
      if (b >= a) ++b;
      auto txn = session.Begin();
      bool ok = true;
      // Any step may come back Aborted (deadlock victim / lock timeout);
      // that is a legitimate rollback, not a test failure.
      Status st = Status::OK();
      auto from = txn.Get(accounts[a]);
      if (!from.ok()) st = from.status();
      Result<Object> to =
          st.ok() ? txn.Get(accounts[b]) : Result<Object>(st);
      if (st.ok() && !to.ok()) st = to.status();
      if (st.ok()) {
        uint32_t amount = static_cast<uint32_t>(std::min<int64_t>(
            rng.UniformInt(1, 5), from->filler_size));
        // Keep every account well inside one page record.
        if (to->filler_size + amount > 2000) amount = 0;
        from->filler_size -= amount;
        to->filler_size += amount;
        // Both writes as one batch: one sorted X-footprint pass.
        WriteBatch batch;
        batch.Put(from.value());
        batch.Put(to.value());
        auto applied = txn.Apply(std::move(batch));
        st = applied.ok() ? Status::OK() : applied.status();
        if (st.ok() && !applied->all_ok()) {
          for (const Status& op : applied->statuses) {
            if (!op.ok()) st = op;
          }
        }
      }
      if (!st.ok()) {
        ok = false;
        if (!st.IsAborted()) failed = true;
      }
      if (ok) {
        if (!txn.Commit().ok()) failed = true;
        ++committed;
      } else {
        if (!txn.Abort().ok()) failed = true;
        ++aborted;
      }
    }
  };

  auto reader = [&](int id) {
    auto session = db.OpenSession();
    LewisPayneRng rng(static_cast<uint64_t>(id) + 7001);
    for (int i = 0; i < kSumsPerReader && !failed && !torn; ++i) {
      auto txn = session.Begin(TxnMode::kSnapshotRead);
      // The whole sum as ONE batched GetMany through the ReadView.
      auto objs = txn.GetMany(accounts);
      uint64_t sum = 0;
      bool ok = objs.ok() && objs->size() == accounts.size();
      if (!objs.ok()) {
        failed = true;
      } else {
        for (const Object& obj : *objs) sum += obj.filler_size;
      }
      // Snapshot readers hold no locks, so they can never be victims.
      if (!txn.Commit().ok()) failed = true;
      if (ok && sum != kTotal) {
        torn = true;
        ADD_FAILURE() << "torn read: snapshot sum " << sum << " != "
                      << kTotal;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (auto& t : threads) t.join();

  ASSERT_FALSE(failed);
  EXPECT_FALSE(torn);
  EXPECT_EQ(committed.load() + aborted.load(),
            static_cast<uint64_t>(kWriters) * kTransfersPerWriter);
  EXPECT_GT(committed.load(), 0u);

  // Quiescent checks: final balances conserve the total, locks are
  // drained, and with no ReadView open GC can reclaim all history.
  uint64_t final_sum = 0;
  for (Oid account : accounts) {
    auto obj = db.PeekObject(account);
    ASSERT_TRUE(obj.ok());
    final_sum += obj->filler_size;
  }
  EXPECT_EQ(final_sum, kTotal);
  EXPECT_EQ(db.lock_manager()->locked_object_count(), 0u);
  EXPECT_EQ(db.read_views()->open_count(), 0u);
  db.CollectVersionGarbage();
  EXPECT_EQ(db.version_store()->stats().live_versions, 0u);
}

}  // namespace
}  // namespace ocb
