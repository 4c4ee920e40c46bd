// The kill-point harness: the durability contract, tested by actually
// crashing. Each case re-executes this binary as a child in "storm mode"
// (OCB_KILL_CHILD_MODE), where multiple client threads commit linked
// pairs through the session API while OCB_WAL_KILLPOINT arms one of the
// crash-injection points (killpoint.h) — the child dies mid-commit with
// _exit(137), no flushes, no destructors. The parent then recovers a
// fresh engine from the surviving log files and checks the two halves of
// the contract against the child's side log:
//
//   * every ACKNOWLEDGED commit (ack written after Commit() returned OK,
//     i.e. after the WAL force) is fully readable and linked;
//   * every commit the child STARTED but never acked is atomic — wholly
//     present or wholly absent, never half a transaction (and for
//     cross-shard pairs: on all participating shards or none).
//
// A fresh exec per case matters: the kill-point configuration latches on
// first use, so a forked-but-not-exec'd child of a test process that
// already ran a recovery would inherit a disarmed config.
//
// Matrix: {Database, ShardedDatabase(4)} x {pre-force, post-force-pre-ack,
// mid-batch, mid-checkpoint}. Sharded storms create pairs round-robin, so
// every pair is a cross-shard 2PC commit.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "oodb/database.h"
#include "oodb/snapshot.h"
#include "sharding/sharded_database.h"
#include "util/format.h"
#include "wal/recovery.h"

namespace ocb {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
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

constexpr uint32_t kShards = 4;

// ---------------------------------------------------------------------------
// Child side (runs in a fresh exec of this binary; no gtest machinery).

StorageOptions ChildOptions(const char* wal) {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 64;
  opts.wal_path = wal;
  return opts;
}

// Commits linked pairs from several client threads, logging an intent
// line before each Commit() and an ack line after it returns OK. Lines
// are fflush'd while the log mutex is held: _exit loses stdio buffers,
// not kernel ones, so a flushed line survives the crash.
template <typename DB>
void StormChild(DB* db, std::FILE* side, int threads, int per_thread) {
  std::mutex mu;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([db, side, per_thread, &mu]() {
      auto session = db->OpenSession();
      for (int i = 0; i < per_thread; ++i) {
        auto txn = session.Begin();
        auto a = txn.Create(0);
        auto b = txn.Create(1);
        if (!a.ok() || !b.ok() || !txn.SetReference(*a, 0, *b).ok()) {
          _exit(3);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          std::fprintf(side, "I %llu %llu\n",
                       static_cast<unsigned long long>(*a),
                       static_cast<unsigned long long>(*b));
          std::fflush(side);
        }
        if (!txn.Commit().ok()) _exit(3);
        {
          std::lock_guard<std::mutex> lock(mu);
          std::fprintf(side, "A %llu %llu\n",
                       static_cast<unsigned long long>(*a),
                       static_cast<unsigned long long>(*b));
          std::fflush(side);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

// The SI/OCC storm: contended Put-based writes (SetReference is
// NotSupported under the optimistic algorithms). Each transaction
// creates a fresh class-1 witness b, points it at a shared contended
// class-0 object a (b.orefs[0] = a), and bumps a.orefs[0] = b — so the
// witness's existence after recovery is exactly the transaction's
// durability evidence, immune to later overwrites of the contended
// slot. Outcomes logged: "I a b" intent, then "A a b" (Commit returned
// OK — must be replayed) or "R a b" (validation abort, WriteConflict or
// deadlock — must be wholly absent, witness included).
//
// The storm opens with one DETERMINISTIC validation abort (a 2PL
// interferer commits between the optimistic transaction's read and its
// commit), so the rejected side of the contract is never vacuously
// checked.
template <typename DB>
void CcStormChild(DB* db, std::FILE* side, int threads, int per_thread,
                  TxnMode cc) {
  std::vector<Oid> shared;
  {
    auto txn = db->OpenSession().Begin();
    for (int i = 0; i < 4; ++i) {
      auto oid = txn.Create(0);
      if (!oid.ok()) _exit(3);
      shared.push_back(*oid);
    }
    if (!txn.Commit().ok()) _exit(3);
  }

  std::mutex mu;

  {
    // The guaranteed validation abort: read shared[0] optimistically,
    // let a 2PL writer commit it, then fail commit validation.
    auto loser = db->OpenSession().Begin(cc);
    auto witness = loser.Create(1);
    auto target = loser.Get(shared[0]);
    if (!witness.ok() || !target.ok()) _exit(3);
    {
      auto interferer = db->OpenSession().Begin();
      auto obj = interferer.Get(shared[0]);
      if (!obj.ok()) _exit(3);
      obj->orefs[1] = shared[0];
      if (!interferer.Put(obj.value()).ok() || !interferer.Commit().ok()) {
        _exit(3);
      }
    }
    auto mine = loser.Get(*witness);
    if (!mine.ok()) _exit(3);
    mine->orefs[0] = shared[0];
    target->orefs[0] = *witness;
    if (!loser.Put(mine.value()).ok() || !loser.Put(target.value()).ok()) {
      _exit(3);
    }
    std::fprintf(side, "I %llu %llu\n",
                 static_cast<unsigned long long>(shared[0]),
                 static_cast<unsigned long long>(*witness));
    std::fflush(side);
    if (loser.Commit().ok()) _exit(3);  // MUST lose validation.
    std::fprintf(side, "R %llu %llu\n",
                 static_cast<unsigned long long>(shared[0]),
                 static_cast<unsigned long long>(*witness));
    std::fflush(side);
  }

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([db, side, per_thread, cc, &mu, &shared, t]() {
      auto session = db->OpenSession();
      std::mt19937 rng(static_cast<unsigned>(7 + t));
      std::uniform_int_distribution<size_t> pick(0, shared.size() - 1);
      for (int i = 0; i < per_thread; ++i) {
        auto txn = session.Begin(cc);
        const Oid a = shared[pick(rng)];
        auto target = txn.Get(a);
        if (!target.ok()) _exit(3);
        auto witness = txn.Create(1);
        if (!witness.ok()) _exit(3);
        auto mine = txn.Get(*witness);
        if (!mine.ok()) _exit(3);
        mine->orefs[0] = a;
        target->orefs[0] = *witness;
        if (!txn.Put(mine.value()).ok() || !txn.Put(target.value()).ok()) {
          _exit(3);
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          std::fprintf(side, "I %llu %llu\n",
                       static_cast<unsigned long long>(a),
                       static_cast<unsigned long long>(*witness));
          std::fflush(side);
        }
        const Status st = txn.Commit();
        if (!st.ok() && !st.IsWriteConflict() && !st.IsAborted()) _exit(3);
        {
          std::lock_guard<std::mutex> lock(mu);
          std::fprintf(side, "%s %llu %llu\n", st.ok() ? "A" : "R",
                       static_cast<unsigned long long>(a),
                       static_cast<unsigned long long>(*witness));
          std::fflush(side);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

// Entry point for OCB_KILL_CHILD_MODE. Never returns on a kill; returns 0
// if the storm outran the countdown (the parent treats that as failure).
int RunKillChild(const std::string& mode) {
  const char* wal = std::getenv("OCB_KILL_WAL");
  const char* side_path = std::getenv("OCB_KILL_SIDE");
  const char* snap = std::getenv("OCB_KILL_SNAP");
  if (wal == nullptr || side_path == nullptr || snap == nullptr) return 2;
  std::FILE* side = std::fopen(side_path, "w");
  if (side == nullptr) return 2;

  // Checkpoint cases storm quietly first, then die inside SaveSnapshot.
  const char* point = std::getenv("OCB_WAL_KILLPOINT");
  const bool checkpoint =
      point != nullptr && std::string(point) == "mid-checkpoint";
  if (mode == "db-si" || mode == "db-occ" || mode == "sharded-si" ||
      mode == "sharded-occ") {
    const TxnMode cc = mode.find("-si") != std::string::npos
                               ? TxnMode::kSI
                               : TxnMode::kOCC;
    if (mode.rfind("db", 0) == 0) {
      Database db(ChildOptions(wal));
      db.SetSchema(TwoClassSchema());
      CcStormChild(&db, side, 4, 24, cc);
    } else {
      ShardedDatabase db(ChildOptions(wal), kShards);
      db.SetSchema(TwoClassSchema());
      CcStormChild(&db, side, 4, 24, cc);
    }
    std::fclose(side);
    return 0;
  }
  if (mode == "db") {
    Database db(ChildOptions(wal));
    db.SetSchema(TwoClassSchema());
    if (checkpoint) {
      // Quiet commits, then one checkpoint: SaveSnapshot dies between the
      // snapshot-file fsync and the checkpoint log record.
      StormChild(&db, side, 1, 6);
      SaveSnapshot(&db, snap);
    } else {
      StormChild(&db, side, 4, 24);
    }
  } else {
    ShardedDatabase db(ChildOptions(wal), kShards);
    db.SetSchema(TwoClassSchema());
    if (checkpoint) {
      StormChild(&db, side, 1, 6);
      SaveSnapshot(db.shard(0), snap);
    } else {
      StormChild(&db, side, 4, 24);
    }
  }
  std::fclose(side);
  return 0;
}

// ---------------------------------------------------------------------------
// Parent side.

struct SideLog {
  std::vector<std::pair<Oid, Oid>> acked;
  std::vector<std::pair<Oid, Oid>> rejected;  // Validation abort logged.
  std::vector<std::pair<Oid, Oid>> unacked;   // Intent, then the crash.
};

SideLog ParseSideLog(const std::string& path) {
  SideLog out;
  std::vector<std::pair<Oid, Oid>> intents;
  std::set<std::pair<Oid, Oid>> acks;
  std::set<std::pair<Oid, Oid>> rejects;
  std::ifstream in(path);
  std::string tag;
  unsigned long long a = 0, b = 0;
  while (in >> tag >> a >> b) {
    if (tag == "I") intents.emplace_back(a, b);
    if (tag == "A") acks.insert({a, b});
    if (tag == "R") rejects.insert({a, b});
  }
  for (const auto& pair : intents) {
    if (acks.count(pair)) {
      out.acked.push_back(pair);
    } else if (rejects.count(pair)) {
      out.rejected.push_back(pair);
    } else {
      out.unacked.push_back(pair);
    }
  }
  return out;
}

class KillpointTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::remove(wal_.c_str());
    for (uint32_t k = 0; k < kShards; ++k) {
      std::remove((wal_ + Format(".shard%u", k)).c_str());
    }
    std::remove((wal_ + ".coord").c_str());
    std::remove(side_.c_str());
    std::remove(snap_.c_str());
  }

  StorageOptions WalOptions() { return ChildOptions(wal_.c_str()); }

  // Re-execs this binary in child mode with the kill point armed and
  // waits for it to die there (exit 137 = _exit at the kill point).
  void RunChild(const char* mode, const char* point, int kill_after) {
    TearDown();  // Fresh logs for every case.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      setenv("OCB_KILL_CHILD_MODE", mode, 1);
      setenv("OCB_KILL_WAL", wal_.c_str(), 1);
      setenv("OCB_KILL_SIDE", side_.c_str(), 1);
      setenv("OCB_KILL_SNAP", snap_.c_str(), 1);
      setenv("OCB_WAL_KILLPOINT", point, 1);
      setenv("OCB_WAL_KILL_AFTER", Format("%d", kill_after).c_str(), 1);
      char* const argv[] = {const_cast<char*>("recovery_killpoint_child"),
                            nullptr};
      execv("/proc/self/exe", argv);
      _exit(2);  // exec failed.
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "child did not die at kill point '" << point << "'";
    log_ = ParseSideLog(side_);
    ASSERT_FALSE(log_.acked.empty())
        << "vacuous run: no commit was acked before the crash";
  }

  // Acked => readable and linked; intent-without-ack => atomic.
  template <typename DB>
  void VerifyContract(DB* revived) {
    for (const auto& [a, b] : log_.acked) {
      auto ra = revived->PeekObject(a);
      ASSERT_TRUE(ra.ok()) << "acked oid " << a << " lost";
      EXPECT_EQ(ra->orefs[0], b) << "acked link " << a << "->" << b;
      EXPECT_TRUE(revived->PeekObject(b).ok()) << "acked oid " << b;
    }
    for (const auto& [a, b] : log_.unacked) {
      const bool has_a = revived->PeekObject(a).ok();
      const bool has_b = revived->PeekObject(b).ok();
      EXPECT_EQ(has_a, has_b)
          << "half a transaction recovered: " << a << "/" << b;
      if (has_a) {
        EXPECT_EQ(revived->PeekObject(a)->orefs[0], b)
            << "recovered pair " << a << "/" << b << " lost its link";
      }
    }
  }

  // The optimistic storm's contract. The witness object b is each
  // transaction's durability evidence (the contended slot gets
  // overwritten by later winners, so it proves nothing):
  //   * acked      => b replayed, still pointing at its target;
  //   * rejected   => b wholly absent (the validation abort rolled the
  //                   eager creation back before any redo was logged);
  //   * crash-torn => atomic: if b recovered, its link recovered too.
  template <typename DB>
  void VerifyCcContract(DB* revived) {
    ASSERT_FALSE(log_.rejected.empty())
        << "the deterministic validation abort never happened";
    for (const auto& [a, b] : log_.acked) {
      auto witness = revived->PeekObject(b);
      ASSERT_TRUE(witness.ok()) << "acked witness " << b << " lost";
      EXPECT_EQ(witness->orefs[0], a)
          << "acked witness " << b << " lost its link to " << a;
      EXPECT_TRUE(revived->PeekObject(a).ok());
    }
    for (const auto& [a, b] : log_.rejected) {
      EXPECT_FALSE(revived->PeekObject(b).ok())
          << "validation-aborted witness " << b << " was replayed";
    }
    for (const auto& [a, b] : log_.unacked) {
      auto witness = revived->PeekObject(b);
      if (witness.ok()) {
        EXPECT_EQ(witness->orefs[0], a)
            << "half-recovered optimistic txn: witness " << b
            << " present without its link";
      }
    }
  }

  void RunDatabaseCase(const char* point, int kill_after) {
    RunChild("db", point, kill_after);
    if (HasFatalFailure()) return;
    Database revived(WalOptions());
    revived.SetSchema(TwoClassSchema());
    ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
    VerifyContract(&revived);
  }

  void RunShardedCase(const char* point, int kill_after) {
    RunChild("sharded", point, kill_after);
    if (HasFatalFailure()) return;
    ShardedDatabase revived(WalOptions(), kShards);
    revived.SetSchema(TwoClassSchema());
    ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
    VerifyContract(&revived);
  }

  void RunDatabaseCcCase(const char* mode, const char* point,
                         int kill_after) {
    RunChild(mode, point, kill_after);
    if (HasFatalFailure()) return;
    Database revived(WalOptions());
    revived.SetSchema(TwoClassSchema());
    ASSERT_TRUE(wal::RecoverDatabase(&revived).ok());
    VerifyCcContract(&revived);
  }

  void RunShardedCcCase(const char* mode, const char* point,
                        int kill_after) {
    RunChild(mode, point, kill_after);
    if (HasFatalFailure()) return;
    ShardedDatabase revived(WalOptions(), kShards);
    revived.SetSchema(TwoClassSchema());
    ASSERT_TRUE(wal::RecoverShardedDatabase(&revived).ok());
    VerifyCcContract(&revived);
  }

  std::string wal_ = TempPath("ocb_killpoint_test.wal");
  std::string side_ = TempPath("ocb_killpoint_test.side");
  std::string snap_ = TempPath("ocb_killpoint_test.snap");
  SideLog log_;
};

TEST_F(KillpointTest, DatabasePreForce) { RunDatabaseCase("pre-force", 6); }

TEST_F(KillpointTest, DatabasePostForcePreAck) {
  RunDatabaseCase("post-force", 6);
}

TEST_F(KillpointTest, DatabaseMidBatch) { RunDatabaseCase("mid-batch", 10); }

TEST_F(KillpointTest, DatabaseMidCheckpoint) {
  // All six commits were acked before the checkpoint started; dying with
  // the snapshot file written but its checkpoint record unlogged must
  // lose none of them (recovery ignores the orphan snapshot).
  RunDatabaseCase("mid-checkpoint", 0);
}

TEST_F(KillpointTest, ShardedPreForce) { RunShardedCase("pre-force", 6); }

TEST_F(KillpointTest, ShardedPostForcePreAck) {
  RunShardedCase("post-force", 6);
}

TEST_F(KillpointTest, ShardedMidBatch) { RunShardedCase("mid-batch", 10); }

TEST_F(KillpointTest, ShardedMidCheckpoint) {
  RunShardedCase("mid-checkpoint", 0);
}

// The optimistic storms: same kill points, Put-based contended writes.

TEST_F(KillpointTest, DatabaseSnapshotIsolationStorm) {
  RunDatabaseCcCase("db-si", "pre-force", 10);
}

TEST_F(KillpointTest, DatabaseSiloOccStorm) {
  RunDatabaseCcCase("db-occ", "post-force", 10);
}

TEST_F(KillpointTest, ShardedSnapshotIsolationStorm) {
  RunShardedCcCase("sharded-si", "pre-force", 10);
}

TEST_F(KillpointTest, ShardedSiloOccStorm) {
  RunShardedCcCase("sharded-occ", "post-force", 10);
}

}  // namespace
}  // namespace ocb

// Custom main: in child mode (set by the harness before exec) run the
// commit storm instead of the test suite.
int main(int argc, char** argv) {
  if (const char* mode = std::getenv("OCB_KILL_CHILD_MODE")) {
    return ocb::RunKillChild(mode);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
