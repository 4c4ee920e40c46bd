// Concurrency smoke tests: the Database facade is shared by CLIENTN
// clients (paper §3.1); these tests hammer it from several threads and
// check structural invariants afterwards.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "clustering/dstc.h"
#include "engine/session.h"
#include "ocb/generator.h"
#include "oodb/database.h"

namespace ocb {
namespace {

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.buffer_pool_pages = 32;
  return opts;
}

DatabaseParameters SmallDb() {
  DatabaseParameters p;
  p.num_classes = 4;
  p.num_objects = 300;
  p.max_nref = 3;
  p.seed = 91;
  return p;
}

TEST(ConcurrencyTest, ParallelReadsAreSafe) {
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());
  const std::vector<Oid> oids = db.object_store()->LiveOids();

  std::atomic<uint64_t> reads{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      LewisPayneRng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 2000; ++i) {
        const Oid oid = oids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
        auto obj = db.GetObject(oid);
        if (!obj.ok()) {
          failed = true;
          return;
        }
        ++reads;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(reads.load(), 8000u);
}

TEST(ConcurrencyTest, ParallelWritesKeepBackrefSymmetry) {
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());
  const std::vector<Oid> oids = db.object_store()->LiveOids();

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      LewisPayneRng rng(static_cast<uint64_t>(t) + 100);
      for (int i = 0; i < 500; ++i) {
        const Oid from = oids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
        auto obj = db.PeekObject(from);
        if (!obj.ok()) continue;
        // Retarget a random slot to a same-class-compatible object: use
        // the schema's declared target class extent.
        const ClassDescriptor& cls = db.schema().GetClass(obj->class_id);
        const uint32_t slot = static_cast<uint32_t>(
            rng.UniformInt(0, cls.maxnref - 1));
        if (cls.cref[slot] == kNullClass) continue;
        const auto extent = db.schema().GetClass(cls.cref[slot]).iterator;
        if (extent.empty()) continue;
        const Oid to = extent[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(extent.size()) - 1))];
        Status st = db.SetReference(from, slot, to);
        if (!st.ok() && !st.IsNoSpace()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed);

  // Backref symmetry must hold after the storm.
  for (Oid oid : db.object_store()->LiveOids()) {
    auto obj = db.PeekObject(oid);
    ASSERT_TRUE(obj.ok());
    for (Oid target : obj->orefs) {
      if (target == kInvalidOid) continue;
      auto target_obj = db.PeekObject(target);
      ASSERT_TRUE(target_obj.ok());
      ASSERT_NE(std::find(target_obj->backrefs.begin(),
                          target_obj->backrefs.end(), oid),
                target_obj->backrefs.end())
          << oid << " -> " << target;
    }
  }
}

TEST(ConcurrencyTest, TransactionalStressKeepsInvariants) {
  // N client threads run full 2PL transactions (reads, reference
  // rewires, updates, deletes — with a share of deliberate aborts) over
  // one shared Database. Afterwards the structural invariants must hold:
  // backref symmetry in both directions and extent/store agreement.
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 250;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      auto session = db.OpenSession();
      LewisPayneRng rng(static_cast<uint64_t>(t) + 777);
      for (int i = 0; i < kTxnsPerThread && !failed; ++i) {
        auto txn = session.Begin();
        bool txn_ok = true;
        const int ops = static_cast<int>(rng.UniformInt(1, 4));
        for (int op = 0; op < ops && txn_ok; ++op) {
          const std::vector<Oid> live = db.LiveOidsSnapshot();
          if (live.empty()) break;
          const Oid oid = live[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
          const int kind = static_cast<int>(rng.UniformInt(0, 9));
          Status st = Status::OK();
          if (kind < 5) {  // Read.
            auto obj = txn.Get(oid);
            st = obj.ok() ? Status::OK() : obj.status();
          } else if (kind < 8) {  // Rewire a reference.
            auto obj = txn.Get(oid);
            if (!obj.ok()) {
              st = obj.status();
            } else {
              const ClassDescriptor& cls =
                  db.schema().GetClass(obj->class_id);
              const uint32_t slot = static_cast<uint32_t>(
                  rng.UniformInt(0, cls.maxnref - 1));
              if (cls.cref[slot] != kNullClass) {
                const auto extent = db.ExtentSnapshot(cls.cref[slot]);
                if (!extent.empty()) {
                  const Oid to = extent[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int64_t>(extent.size()) - 1))];
                  st = txn.SetReference(oid, slot, to);
                }
              }
            }
          } else if (kind == 8) {  // Delete.
            st = txn.Delete(oid);
          } else {  // Update in place.
            auto obj = txn.Get(oid);
            st = obj.ok() ? txn.Put(obj.value()) : obj.status();
          }
          if (st.IsAborted()) {
            txn_ok = false;  // Deadlock victim: roll back.
          } else if (!st.ok() && !st.IsNotFound() && !st.IsNoSpace()) {
            failed = true;
            txn_ok = false;
          }
        }
        // A slice of voluntary aborts exercises rollback under load.
        if (txn_ok && rng.Bernoulli(0.1)) txn_ok = false;
        if (txn_ok) {
          if (!txn.Commit().ok()) failed = true;
          ++committed;
        } else {
          if (!txn.Abort().ok()) failed = true;
          ++aborted;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed);
  EXPECT_EQ(committed.load() + aborted.load(),
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  EXPECT_GT(committed.load(), 0u);
  EXPECT_EQ(db.lock_manager()->locked_object_count(), 0u);

  // Backref symmetry, both directions, plus extent/store agreement.
  uint64_t live_count = 0;
  for (Oid oid : db.object_store()->LiveOids()) {
    ++live_count;
    auto obj = db.PeekObject(oid);
    ASSERT_TRUE(obj.ok());
    for (Oid target : obj->orefs) {
      if (target == kInvalidOid) continue;
      auto target_obj = db.PeekObject(target);
      ASSERT_TRUE(target_obj.ok()) << oid << " -> dead " << target;
      ASSERT_NE(std::find(target_obj->backrefs.begin(),
                          target_obj->backrefs.end(), oid),
                target_obj->backrefs.end())
          << oid << " -> " << target;
    }
    for (Oid referer : obj->backrefs) {
      auto referer_obj = db.PeekObject(referer);
      ASSERT_TRUE(referer_obj.ok()) << oid << " <- dead " << referer;
      ASSERT_NE(std::find(referer_obj->orefs.begin(),
                          referer_obj->orefs.end(), oid),
                referer_obj->orefs.end())
          << oid << " <- " << referer;
    }
    const auto& extent = db.schema().GetClass(obj->class_id).iterator;
    ASSERT_EQ(std::count(extent.begin(), extent.end(), oid), 1)
        << "extent membership of " << oid;
  }
  EXPECT_EQ(db.object_count(), live_count);
}

TEST(ConcurrencyTest, ReorganizeWhileReading) {
  // One thread reads continuously while another triggers a DSTC
  // reorganization; no read may observe corruption.
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());
  const std::vector<Oid> oids = db.object_store()->LiveOids();

  Dstc dstc;
  db.SetObserver(&dstc);
  // Feed the observer some crossings so Reorganize has work.
  for (int i = 0; i + 1 < 100; ++i) {
    dstc.OnLinkCross(oids[static_cast<size_t>(i)],
                     oids[static_cast<size_t>(i) + 1], 2, false);
  }
  dstc.OnTransactionEnd();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader([&]() {
    LewisPayneRng rng(55);
    while (!stop) {
      const Oid oid = oids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
      auto obj = db.GetObject(oid);
      if (!obj.ok() && !obj.status().IsNotFound()) {
        failed = true;
        return;
      }
    }
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dstc.Reorganize(&db).ok());
  }
  stop = true;
  reader.join();
  db.SetObserver(nullptr);
  EXPECT_FALSE(failed);
  EXPECT_EQ(db.object_count(), oids.size());
}

// Counts callbacks, and flags any that starts once `detached` is set. The
// test sets `detached` only after SetObserver(nullptr) has returned, and
// clears it before the next SetObserver(&spy).
class DetachSpy : public AccessObserver {
 public:
  void OnTransactionBegin() override { Note(); }
  void OnTransactionEnd() override { Note(); }
  void OnTransactionAbort() override { Note(); }
  void OnObjectAccess(Oid) override { Note(); }
  void OnLinkCross(Oid, Oid, RefTypeId, bool) override { Note(); }

  std::atomic<bool> detached{true};
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> calls_after_detach{0};

 private:
  void Note() {
    if (detached.load()) ++calls_after_detach;
    ++calls;
  }
};

TEST(ConcurrencyTest, ObserverDetachIsSynchronousUnderConcurrentReaders) {
  // Readers skip observer_mu_ while no observer is attached; detaching
  // must still be synchronous: once SetObserver(nullptr) returns, no
  // callback of any reader may start.
  Database db(TestOptions());
  ASSERT_TRUE(GenerateDatabase(SmallDb(), &db).ok());
  const std::vector<Oid> oids = db.object_store()->LiveOids();

  DetachSpy spy;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    const TxnMode mode = t % 2 == 0 ? TxnMode::kSnapshotRead : TxnMode::k2PL;
    readers.emplace_back([&, t, mode]() {
      auto session = db.OpenSession();
      LewisPayneRng rng(static_cast<uint64_t>(t) + 31);
      TraversePolicy policy;
      while (!stop && !failed) {
        auto txn = session.Begin(mode);
        const Oid oid = oids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(oids.size()) - 1))];
        auto root = txn.Get(oid);
        if (!root.ok()) {
          failed = true;
          return;
        }
        if (!txn.Traverse(*root, 3, policy).ok() || !txn.Commit().ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (int round = 0; round < 500 && !failed; ++round) {
    spy.detached = false;
    db.SetObserver(&spy);
    const uint64_t before = spy.calls.load();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (spy.calls.load() == before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    db.SetObserver(nullptr);
    spy.detached = true;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed);
  EXPECT_GT(spy.calls.load(), 0u) << "the attached spy saw no callback";
  EXPECT_EQ(spy.calls_after_detach.load(), 0u)
      << "a callback ran after SetObserver(nullptr) returned";
}

}  // namespace
}  // namespace ocb
