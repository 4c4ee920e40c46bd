// Tests for the DSTC clustering policy: observation periods, selection,
// consolidation, unit construction, and physical reorganization.

#include "clustering/dstc.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "util/rng.h"

namespace ocb {
namespace {

StorageOptions TestOptions() {
  StorageOptions opts;
  opts.page_size = 1024;
  opts.buffer_pool_pages = 8;
  return opts;
}

Schema OneClassSchema(uint32_t maxnref = 2, uint32_t basesize = 40) {
  Schema schema;
  schema.SetRefTypes(Schema::DefaultTraits(3));
  ClassDescriptor cls;
  cls.id = 0;
  cls.maxnref = maxnref;
  cls.basesize = basesize;
  cls.instance_size = basesize;
  cls.tref.assign(maxnref, 2);
  cls.cref.assign(maxnref, 0);
  Schema out = std::move(schema);
  EXPECT_TRUE(out.AddClass(std::move(cls)).ok());
  return out;
}

/// Simulates one transaction that crosses the given links.
void RunTransaction(Dstc* dstc,
                    const std::vector<std::pair<Oid, Oid>>& links) {
  dstc->OnTransactionBegin();
  for (const auto& [from, to] : links) {
    dstc->OnLinkCross(from, to, 2, false);
  }
  dstc->OnTransactionEnd();
}

TEST(DstcTest, NothingConsolidatedBeforePeriodEnds) {
  DstcOptions options;
  options.observation_period_transactions = 10;
  Dstc dstc(options);
  RunTransaction(&dstc, {{1, 2}, {2, 3}});
  EXPECT_EQ(dstc.consolidated_links(), 0u);
}

TEST(DstcTest, SelectionDropsInsignificantLinks) {
  DstcOptions options;
  options.observation_period_transactions = 4;
  options.selection_threshold = 3.0;
  Dstc dstc(options);
  // Link (1,2) crossed 4 times, link (3,4) once: only the former survives.
  RunTransaction(&dstc, {{1, 2}});
  RunTransaction(&dstc, {{1, 2}});
  RunTransaction(&dstc, {{1, 2}, {3, 4}});
  RunTransaction(&dstc, {{1, 2}});  // Period closes here.
  EXPECT_EQ(dstc.consolidated_links(), 1u);
}

TEST(DstcTest, SelfAndInvalidCrossingsIgnored) {
  Dstc dstc;
  dstc.OnLinkCross(5, 5, 0, false);
  dstc.OnLinkCross(kInvalidOid, 3, 0, false);
  dstc.OnLinkCross(3, kInvalidOid, 0, false);
  EXPECT_EQ(dstc.stats().observed_crossings, 0u);
}

TEST(DstcTest, ReverseCrossingsRespectOption) {
  DstcOptions options;
  options.observe_reverse_crossings = false;
  Dstc dstc(options);
  dstc.OnLinkCross(1, 2, 0, /*reverse=*/true);
  EXPECT_EQ(dstc.stats().observed_crossings, 0u);
  dstc.OnLinkCross(1, 2, 0, /*reverse=*/false);
  EXPECT_EQ(dstc.stats().observed_crossings, 1u);
}

TEST(DstcTest, AbortedCrossingsAreNeverCounted) {
  DstcOptions options;
  options.observation_period_transactions = 2;
  options.selection_threshold = 2.0;
  Dstc dstc(options);
  RunTransaction(&dstc, {{1, 2}, {5, 6}});
  dstc.OnTransactionBegin();
  dstc.OnLinkCross(1, 2, 2, false);
  dstc.OnLinkCross(3, 4, 2, false);
  dstc.OnLinkCross(3, 4, 2, false);
  dstc.OnTransactionAbort();
  EXPECT_EQ(dstc.stats().observed_crossings, 2u);
  // The period closes at the second commit, not at the abort, so (5,6)
  // reaches the threshold of 2 inside it. Had the aborted crossings
  // counted, (1,2) and (3,4) would reach it too.
  RunTransaction(&dstc, {{5, 6}});
  EXPECT_EQ(dstc.consolidated_links(), 1u);
  EXPECT_EQ(dstc.stats().observed_crossings, 3u);
}

TEST(DstcTest, ConsolidationDecaysOldKnowledge) {
  DstcOptions options;
  options.observation_period_transactions = 1;
  options.selection_threshold = 1.0;
  options.consolidation_decay = 0.5;
  options.unit_link_threshold = 1.0;
  Dstc dstc(options);
  // Period 1: link (1,2) hot.
  RunTransaction(&dstc, {{1, 2}, {1, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(dstc.consolidated_links(), 1u);
  // Many empty periods: the old weight decays 4 -> 2 -> 1 -> 0.5 -> ...
  // and eventually the noise filter prunes the entry.
  for (int i = 0; i < 8; ++i) RunTransaction(&dstc, {});
  EXPECT_EQ(dstc.consolidated_links(), 0u);
}

TEST(DstcTest, ReorganizeWithoutStatisticsIsANoOp) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  Dstc dstc;
  ASSERT_TRUE(dstc.Reorganize(&db).ok());
  EXPECT_EQ(dstc.stats().reorganizations, 0u);
}

class DstcReorganizeTest : public ::testing::Test {
 protected:
  DstcReorganizeTest() : db_(TestOptions()) {
    db_.SetSchema(OneClassSchema());
    // 60 objects of ~90 bytes: ~8 per 1 KB page.
    for (int i = 0; i < 60; ++i) {
      auto oid = db_.CreateObject(0);
      EXPECT_TRUE(oid.ok());
      oids_.push_back(*oid);
    }
  }
  Database db_;
  std::vector<Oid> oids_;
};

TEST_F(DstcReorganizeTest, HotPairsEndUpOnTheSamePage) {
  DstcOptions options;
  options.observation_period_transactions = 1;
  options.selection_threshold = 1.0;
  Dstc dstc(options);
  // Objects 0 and 59 start far apart (different pages).
  ASSERT_NE(db_.object_store()->Locate(oids_[0])->page_id,
            db_.object_store()->Locate(oids_[59])->page_id);
  // Observe a hot link between them across several transactions.
  for (int t = 0; t < 5; ++t) {
    RunTransaction(&dstc, {{oids_[0], oids_[59]}});
  }
  ASSERT_TRUE(dstc.Reorganize(&db_).ok());
  EXPECT_EQ(dstc.stats().reorganizations, 1u);
  EXPECT_EQ(db_.object_store()->Locate(oids_[0])->page_id,
            db_.object_store()->Locate(oids_[59])->page_id);
  // Moved objects remain readable and intact.
  EXPECT_TRUE(db_.PeekObject(oids_[0]).ok());
  EXPECT_TRUE(db_.PeekObject(oids_[59]).ok());
}

TEST_F(DstcReorganizeTest, UnitsRespectPageBudget) {
  DstcOptions options;
  options.observation_period_transactions = 1;
  options.selection_threshold = 1.0;
  Dstc dstc(options);
  // A star of links around object 0 far larger than one page can hold.
  std::vector<std::pair<Oid, Oid>> star;
  for (size_t i = 1; i < oids_.size(); ++i) {
    star.push_back({oids_[0], oids_[i]});
  }
  for (int t = 0; t < 3; ++t) RunTransaction(&dstc, star);
  ASSERT_TRUE(dstc.Reorganize(&db_).ok());
  ASSERT_FALSE(dstc.last_units().empty());
  const size_t page_budget = db_.object_store()->max_object_size();
  for (const auto& unit : dstc.last_units()) {
    size_t bytes = 0;
    for (Oid oid : unit) {
      auto obj = db_.PeekObject(oid);
      ASSERT_TRUE(obj.ok());
      bytes += obj->EncodedSize();
    }
    EXPECT_LE(bytes, page_budget);
  }
}

TEST_F(DstcReorganizeTest, MaxUnitObjectsCapRespected) {
  DstcOptions options;
  options.observation_period_transactions = 1;
  options.selection_threshold = 1.0;
  options.max_unit_objects = 3;
  Dstc dstc(options);
  std::vector<std::pair<Oid, Oid>> chain;
  for (size_t i = 0; i + 1 < 10; ++i) {
    chain.push_back({oids_[i], oids_[i + 1]});
  }
  for (int t = 0; t < 3; ++t) RunTransaction(&dstc, chain);
  ASSERT_TRUE(dstc.Reorganize(&db_).ok());
  for (const auto& unit : dstc.last_units()) {
    EXPECT_LE(unit.size(), 3u);
  }
}

TEST_F(DstcReorganizeTest, ReorganizationIoChargedToClusteringScope) {
  DstcOptions options;
  options.observation_period_transactions = 1;
  options.selection_threshold = 1.0;
  Dstc dstc(options);
  for (int t = 0; t < 3; ++t) {
    RunTransaction(&dstc, {{oids_[0], oids_[30]}});
  }
  const uint64_t transaction_before =
      db_.disk()->counters(IoScope::kTransaction).total();
  ASSERT_TRUE(dstc.Reorganize(&db_).ok());
  EXPECT_GT(db_.disk()->counters(IoScope::kClustering).total(), 0u);
  EXPECT_EQ(db_.disk()->counters(IoScope::kTransaction).total(),
            transaction_before);
}

TEST_F(DstcReorganizeTest, ResetStatisticsForgets) {
  DstcOptions options;
  options.observation_period_transactions = 1;
  Dstc dstc(options);
  for (int t = 0; t < 3; ++t) {
    RunTransaction(&dstc, {{oids_[0], oids_[1]}, {oids_[0], oids_[1]}});
  }
  EXPECT_GT(dstc.consolidated_links(), 0u);
  dstc.ResetStatistics();
  EXPECT_EQ(dstc.consolidated_links(), 0u);
  ASSERT_TRUE(dstc.Reorganize(&db_).ok());
  EXPECT_EQ(dstc.stats().reorganizations, 0u);
}

TEST_F(DstcReorganizeTest, SeededStreamIsPinned) {
  // A seeded crossing stream: four full periods, every fifth transaction
  // aborted, decay, pruning, and a partial period that Reorganize closes.
  // The hot window drifts by 12 objects a period, so old links decay
  // below the pruning floor. Every expected value below was recorded from
  // the hash-map observation matrix this implementation replaced.
  DstcOptions options;
  options.observation_period_transactions = 6;
  options.selection_threshold = 2.0;
  options.consolidation_decay = 0.5;
  options.unit_link_threshold = 1.0;
  Dstc dstc(options);
  LewisPayneRng rng(2024);
  std::vector<size_t> links_after_period;
  uint64_t committed = 0;
  for (int t = 0; committed < 4 * 6 + 3; ++t) {
    const int64_t window = static_cast<int64_t>(12 * (committed / 6));
    dstc.OnTransactionBegin();
    const int64_t crossings = rng.UniformInt(4, 24);
    for (int64_t c = 0; c < crossings; ++c) {
      const int64_t from = (window + rng.UniformInt(0, 11)) % 60;
      const int64_t to = rng.Bernoulli(0.8)
                             ? (from + rng.UniformInt(1, 3)) % 60
                             : rng.UniformInt(0, 59);
      const bool reverse = rng.Bernoulli(0.3);
      dstc.OnLinkCross(oids_[static_cast<size_t>(from)],
                       oids_[static_cast<size_t>(to)], 2, reverse);
    }
    if (t % 5 == 4) {
      dstc.OnTransactionAbort();
      continue;
    }
    dstc.OnTransactionEnd();
    if (++committed % 6 == 0) {
      links_after_period.push_back(dstc.consolidated_links());
    }
  }
  ASSERT_TRUE(dstc.Reorganize(&db_).ok());
  std::map<Oid, size_t> index;
  for (size_t i = 0; i < oids_.size(); ++i) index[oids_[i]] = i;
  std::vector<std::vector<size_t>> units;
  for (const auto& unit : dstc.last_units()) {
    units.emplace_back();
    for (Oid oid : unit) units.back().push_back(index.at(oid));
  }
  EXPECT_EQ(links_after_period, (std::vector<size_t>{16, 32, 54, 72}));
  EXPECT_EQ(dstc.consolidated_links(), 68u);
  EXPECT_EQ(dstc.stats().observed_crossings, 351u);
  EXPECT_EQ(units, (std::vector<std::vector<size_t>>{
                       {51, 52, 50, 54},
                       {0, 59, 58},
                       {53, 56, 57},
                       {45, 48, 42, 44, 46, 47, 49, 41, 43},
                       {27, 30},
                       {24, 26},
                       {34, 37, 38, 40, 39},
                   }));
}

TEST(NoClusteringTest, NeverMoves) {
  Database db(TestOptions());
  db.SetSchema(OneClassSchema());
  auto a = db.CreateObject(0);
  ASSERT_TRUE(a.ok());
  const auto loc_before = db.object_store()->Locate(*a);
  NoClustering policy;
  policy.OnLinkCross(1, 2, 0, false);
  ASSERT_TRUE(policy.Reorganize(&db).ok());
  EXPECT_EQ(policy.stats().reorganizations, 0u);
  EXPECT_EQ(db.object_store()->Locate(*a)->page_id, loc_before->page_id);
  EXPECT_EQ(policy.name(), "NoClustering");
}

}  // namespace
}  // namespace ocb
