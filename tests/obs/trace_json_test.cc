/// \file trace_json_test.cc
/// \brief End-to-end trace validation: run real transactions against a
///        Database with the recorder on, Dump() the ring to a file, parse
///        it back (mini_json), and assert the Chrome-trace-event structure
///        the viewer relies on — mandatory fields, and nesting-by-
///        containment of the engine spans inside their transaction span.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/session.h"
#include "mini_json.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "ocb/generator.h"
#include "ocb/presets.h"

namespace ocb {
namespace {

using obs::TraceRecorder;
using test_json::ParseJson;
using test_json::Value;

struct Span {
  std::string name;
  double ts = 0;
  double dur = 0;
  double tid = 0;
};

std::vector<Span> CompleteSpans(const Value& doc) {
  std::vector<Span> out;
  const Value* events = doc.Get("traceEvents");
  if (events == nullptr) return out;
  for (const auto& ev : events->items) {
    const Value* ph = ev->Get("ph");
    if (ph == nullptr || ph->str != "X") continue;
    Span s;
    s.name = ev->Get("name")->str;
    s.ts = ev->Get("ts")->number;
    s.dur = ev->Get("dur")->number;
    s.tid = ev->Get("tid")->number;
    out.push_back(s);
  }
  return out;
}

bool NestsInside(const Span& inner, const Span& outer) {
  return inner.tid == outer.tid && outer.ts <= inner.ts &&
         inner.ts + inner.dur <= outer.ts + outer.dur;
}

TEST(TraceJsonTest, CommitSpansNestInsideTransactionSpan) {
  obs::SetEnabled(true);

  // A tiny pool forces miss I/O inside the transaction, so the trace
  // carries io.miss spans alongside the commit-path ones.
  StorageOptions storage;
  storage.buffer_pool_pages = 16;
  Database db(storage);
  OcbPreset preset = presets::Default();
  preset.database.num_classes = 4;
  preset.database.num_objects = 400;
  preset.database.seed = 7;
  ASSERT_TRUE(GenerateDatabase(preset.database, &db).ok());
  const std::vector<Oid> roots = db.LiveOidsSnapshot();
  ASSERT_GE(roots.size(), 40u);

  // Trace only the transaction under test, not generation.
  auto& rec = TraceRecorder::Global();
  rec.Enable();
  {
    Session session = db.OpenSession();
    auto txn = session.Begin();
    auto batch =
        txn.GetMany(std::vector<Oid>(roots.begin(), roots.begin() + 32));
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(txn.SetReference(roots[0], 0, roots[1]).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  rec.Disable();

  const std::string path =
      testing::TempDir() + "/ocb_trace_json_test.json";
  ASSERT_TRUE(rec.Dump(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());

  std::string error;
  const auto doc = ParseJson(buffer.str(), &error);
  ASSERT_NE(doc, nullptr) << error;
  ASSERT_TRUE(doc->is_object());
  const Value* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->items.empty());
  for (const auto& ev : events->items) {
    ASSERT_TRUE(ev->is_object());
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      ASSERT_NE(ev->Get(key), nullptr) << key;
    }
  }

  const std::vector<Span> spans = CompleteSpans(*doc);
  // The write transaction must appear as one "txn" complete event...
  const Span* txn_span = nullptr;
  for (const Span& s : spans) {
    if (s.name == "txn" && (txn_span == nullptr || s.dur > txn_span->dur)) {
      txn_span = &s;
    }
  }
  ASSERT_NE(txn_span, nullptr) << "no txn span recorded";

  // ...with the commit stamp and at least one miss I/O nested inside it
  // (same tid, [ts, ts+dur] containment — exactly how Perfetto nests).
  int nested_stamps = 0;
  int nested_ios = 0;
  for (const Span& s : spans) {
    if (s.name == "commit.stamp" && NestsInside(s, *txn_span)) {
      ++nested_stamps;
    }
    if (s.name == "io.miss" && NestsInside(s, *txn_span)) ++nested_ios;
  }
  EXPECT_GE(nested_stamps, 1)
      << "commit.stamp span does not nest inside the txn span";
  EXPECT_GE(nested_ios, 1)
      << "no io.miss span nests inside the txn span";
}

TEST(TraceJsonTest, ReadOnlySnapshotTransactionCarriesRoArg) {
  obs::SetEnabled(true);
  StorageOptions storage;
  storage.buffer_pool_pages = 64;
  Database db(storage);
  OcbPreset preset = presets::Default();
  preset.database.num_classes = 2;
  preset.database.num_objects = 100;
  preset.database.seed = 11;
  ASSERT_TRUE(GenerateDatabase(preset.database, &db).ok());
  const std::vector<Oid> roots = db.LiveOidsSnapshot();

  auto& rec = TraceRecorder::Global();
  rec.Enable();
  {
    Session session = db.OpenSession();
    auto reader = session.Begin(TxnMode::kSnapshotRead);
    ASSERT_TRUE(reader.Get(roots[0]).ok());
    ASSERT_TRUE(reader.Commit().ok());
  }
  rec.Disable();

  std::string error;
  const auto doc = ParseJson(rec.ToJson(), &error);
  ASSERT_NE(doc, nullptr) << error;
  const Value* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found_ro_txn = false;
  for (const auto& ev : events->items) {
    if (ev->Get("name")->str != "txn") continue;
    const Value* args = ev->Get("args");
    if (args == nullptr) continue;
    const Value* ro_arg = args->Get("ro");
    if (ro_arg != nullptr && ro_arg->number == 1.0) found_ro_txn = true;
  }
  EXPECT_TRUE(found_ro_txn) << "no read-only txn span with ro=1 arg";
}

}  // namespace
}  // namespace ocb
