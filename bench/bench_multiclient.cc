/// \file bench_multiclient.cc
/// \brief Ext-5: the multi-user mode (paper §3.1 calls OCB's multi-user
///        support "almost unique"). Six sections:
///
/// **Latch section** — sweeps CLIENTN over a shared single Database in
/// two reader modes: locking (readers are k2PL transactions, take S locks
/// and queue behind writers) vs snapshot (read-only transactions run in
/// kSnapshotRead, pin a ReadView and bypass the lock manager). Reports
/// lock wait next to catalog-latch and page-latch wait.
///
/// **Shard section** — sweeps SHARDN × CLIENTN × {2PL, MVCC} over a
/// ShardedDatabase on a *write-heavy* mix (updates/inserts/deletes supply
/// long X-lock holds), reporting per-shard lock wait, the cross-shard
/// transaction fraction and 2PC overhead. The before/after number is
/// aggregate lock-wait time at SHARDN=1 vs SHARDN=4: with per-shard lock
/// managers, version stores and catalogs, lock *hold* times stop paying
/// the single-store singletons, so waiters drain faster.
///
/// **Group-commit section** — CLIENTN=8 on a write-heavy mix, sweeping
/// the commit pipeline's batch cap over {1, 8, 32} on a single Database
/// and on a SHARDN=2 ShardedDatabase. Batch cap 1 is per-transaction
/// commits through the same code path; larger caps let one leader absorb
/// every committer that arrived while its predecessor worked, so the
/// serialized commit-path work — timestamp allocation + version stamping
/// under the version-store commit mutex, and the coordinator commit
/// mutex / in-flight registry on the sharded engine — is paid once per
/// batch instead of once per transaction.
///
/// **WAL section** — the group-commit storm with the real redo WAL off vs
/// on, single store and SHARDN=2: commits per fsync'd batch.
///
/// **I/O section** — CLIENTN=4 on a miss-heavy read storm (scattered
/// GetMany batches plus breadth-first traversals over a buffer pool far
/// smaller than the database) in wall-clock latency-injection mode,
/// sweeping io_workers over {0, 32}. io_workers=0 is the blocking
/// baseline: every miss pays its full device latency inline on the
/// calling thread. io_workers=32 is the async path: GetMany/Traverse
/// issue every batched miss to the worker group before awaiting any, so
/// N misses overlap toward one device latency, and dirty victims retire
/// through the background write-back flusher instead of stalling
/// eviction. The overlap column (serial/charged simulated nanos) shows
/// how much device time genuinely overlapped.
///
/// **CC section** — CLIENTN × {k2PL, kSI, kOCC} writers on a read-mostly
/// and a write-hot mix: throughput and conflict-abort rate per mode.
///
/// Environment knobs (CI smoke jobs):
///   OCB_MULTICLIENT_SECTIONS  comma list of "latch","shard","groupcommit",
///                             "wal","io","cc" (default all)
///   OCB_MULTICLIENT_SHARDS    SHARDN list for the shard section
///                             (default "1,2,4")
///   OCB_MULTICLIENT_SMOKE     if set, shrink transaction counts

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "engine/session.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "ocb/client.h"
#include "ocb/generator.h"
#include "ocb/presets.h"
#include "oodb/snapshot.h"
#include "sharding/sharded_database.h"
#include "wal/wal_writer.h"

namespace {

bool SectionEnabled(const char* name) {
  const char* env = std::getenv("OCB_MULTICLIENT_SECTIONS");
  if (env == nullptr || env[0] == '\0') return true;
  return std::strstr(env, name) != nullptr;
}

std::vector<uint32_t> ShardCounts() {
  const char* env = std::getenv("OCB_MULTICLIENT_SHARDS");
  std::vector<uint32_t> out;
  if (env != nullptr && env[0] != '\0') {
    for (const char* p = env; *p != '\0';) {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v > 0) out.push_back(static_cast<uint32_t>(v));
      p = *end == ',' ? end + 1 : end;
    }
  }
  if (out.empty()) out = {1, 2, 4};
  return out;
}

bool SmokeMode() {
  const char* env = std::getenv("OCB_MULTICLIENT_SMOKE");
  return env != nullptr && env[0] != '\0';
}

}  // namespace

int main() {
  using namespace ocb;

  bench::PrintHeader("Ext-5",
                     "multi-client scaling (CLIENTN sweep, 2PL vs MVCC, "
                     "SHARDN sharding)");

  // Machine-readable output: OCB_BENCH_JSON=path emits one object per
  // sweep point (ci/check_bench_json.py validates the schema);
  // OCB_TRACE=path records the run's txn/lock/latch/2PC spans and dumps
  // a Chrome/Perfetto trace at exit.
  obs::TraceRecorder::InitFromEnvironment();
  bench::BenchJsonSink json("multiclient");

  // Every grid point runs over an identically generated database.
  // Generation is by far the most expensive step, so generate once and
  // re-load the snapshot per point (exactly the campaign workflow the
  // snapshot subsystem exists for).
  StorageOptions storage;
  storage.buffer_pool_pages = 256;
  const bool smoke = SmokeMode();
  const uint64_t cold_txns = smoke ? 30 : 100;
  const uint64_t hot_txns = smoke ? 100 : 400;

  if (SectionEnabled("latch")) {
    const std::string snapshot_path = "bench_multiclient.ocbsnap";
    {
      Database generated(storage);
      OcbPreset preset = presets::Default();
      preset.database.num_objects = 6000;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &generated).ok()) {
        std::fprintf(stderr, "generation failed\n");
        return 1;
      }
      if (!SaveSnapshot(&generated, snapshot_path).ok()) {
        std::fprintf(stderr, "snapshot save failed\n");
        return 1;
      }
    }

    TextTable table({"Clients", "Mode", "Committed", "Aborted",
                     "Lock wait", "Catalog wait", "Page wait",
                     "Mean I/Os/attempt", "Hit ratio", "Wall time",
                     "Throughput (txn/s)"});
    std::vector<std::string> per_client_lines;
    std::vector<std::string> gc_lines;

    for (uint32_t clients : std::vector<uint32_t>{1, 2, 4, 8}) {
      // CLIENTN=1 keeps the seed's serialized legacy path; every
      // multi-client CLIENTN runs both reader modes over fresh,
      // identically generated databases.
      const int modes = clients == 1 ? 1 : 2;
      for (int mode = 0; mode < modes; ++mode) {
        const bool snapshot = mode == 1;
        Database db(storage);
        if (!LoadSnapshot(&db, snapshot_path).ok()) {
          std::fprintf(stderr, "snapshot load failed\n");
          return 1;
        }
        if (!db.ColdRestart().ok()) return 1;

        OcbPreset preset = presets::Default();
        preset.workload.client_count = clients;
        preset.workload.cold_transactions = cold_txns;
        preset.workload.hot_transactions = hot_txns;
        preset.workload.seed = 31;
        // Read-heavy mix (the paper's traversal-dominated matrix) with
        // enough writes that locking readers genuinely queue behind X
        // locks.
        preset.workload.p_set = 0.22;
        preset.workload.p_simple = 0.22;
        preset.workload.p_hierarchy = 0.18;
        preset.workload.p_stochastic = 0.18;
        preset.workload.p_update = 0.12;
        preset.workload.p_insert = 0.05;
        preset.workload.p_delete = 0.03;
        preset.workload.mvcc_snapshot_reads = snapshot;
        // Per-transaction I/O is computed from the disk's own counters
        // over the whole run: per-client deltas overlap under
        // concurrency (see client.h), the device-level count does not.
        const uint64_t reads_before =
            db.disk()->counters(IoScope::kTransaction).reads;
        const obs::MetricsSnapshot obs_before =
            obs::MetricsRegistry::Global().Snapshot();
        auto report = RunMultiClient(&db, preset.workload);
        if (!report.ok()) {
          std::fprintf(stderr, "run failed: %s\n",
                       report.status().ToString().c_str());
          return 1;
        }
        const obs::MetricsSnapshot obs_window =
            obs::MetricsRegistry::Global().Snapshot().Diff(obs_before);
        const uint64_t reads =
            db.disk()->counters(IoScope::kTransaction).reads - reads_before;
        const uint64_t txns = report->merged.cold.global.transactions +
                              report->merged.warm.global.transactions;
        // Device-level reads include aborted transactions' work and
        // their undo-log rollback, so normalize by *attempted*
        // transactions — the committed-only divisor would inflate with
        // the abort rate.
        const uint64_t attempted = txns + report->total_aborts();
        const double ios_per_attempt =
            attempted == 0 ? 0.0
                           : static_cast<double>(reads) /
                                 static_cast<double>(attempted);
        const char* mode_name =
            clients == 1 ? "legacy" : (snapshot ? "snapshot" : "locking");
        if (json.enabled()) {
          json.BeginPoint();
          obs::JsonWriter& w = json.writer();
          w.Field("section", "latch")
              .Field("clients", clients)
              .Field("mode", mode_name)
              .Field("committed", txns)
              .Field("aborts", report->total_aborts())
              .Field("abort_rate", report->abort_rate())
              .Field("throughput_tps", report->throughput_tps())
              .Field("wall_micros", report->wall_micros)
              .Field("lock_wait_nanos", report->total_lock_wait_nanos())
              .Field("facade_wait_nanos", report->total_facade_wait_nanos())
              .Field("page_latch_wait_nanos",
                     report->total_page_latch_wait_nanos())
              .Field("mean_ios_per_attempt", ios_per_attempt)
              .Field("buffer_hit_ratio",
                     report->merged.warm.buffer_hit_ratio());
          w.BeginObject("histograms");
          bench::WriteHistogramJson(w, "lock_wait",
                                    report->lock_wait_histogram());
          bench::WriteHistogramJson(w, "commit_latency",
                                    report->commit_latency_histogram());
          bench::WriteHistogramJson(w, "twopc", report->twopc_histogram());
          w.EndObject();
          w.Raw("registry", obs_window.ToJson());
          json.EndPoint();
        }
        table.AddRow(
            {Format("%u", clients), mode_name,
             Format("%llu", (unsigned long long)txns),
             Format("%llu", (unsigned long long)report->total_aborts()),
             HumanDuration(report->total_lock_wait_nanos()),
             HumanDuration(report->total_facade_wait_nanos()),
             HumanDuration(report->total_page_latch_wait_nanos()),
             Format("%.2f", ios_per_attempt),
             Format("%.3f", report->merged.warm.buffer_hit_ratio()),
             HumanDuration(report->wall_micros * 1000),
             Format("%.0f", report->throughput_tps())});
        if (clients > 1) {
          const VersionStoreStats vs = db.version_store()->stats();
          gc_lines.push_back(Format(
              "  CLIENTN=%u %s: %llu versions published, %llu GC'd over "
              "%llu passes, %llu live at end; %llu snapshot txns",
              clients, mode_name,
              (unsigned long long)vs.versions_published,
              (unsigned long long)vs.versions_gced,
              (unsigned long long)vs.gc_passes,
              (unsigned long long)vs.live_versions,
              (unsigned long long)report->total_read_only_commits()));
          for (const ClientOutcome& c : report->per_client) {
            per_client_lines.push_back(Format(
                "  CLIENTN=%u %s client %u: %llu committed, %llu "
                "aborted, lock wait %s, catalog wait %s, page wait %s, "
                "%.0f txn/s",
                clients, mode_name, c.client_id,
                (unsigned long long)c.committed,
                (unsigned long long)c.aborts,
                HumanDuration(c.lock_wait_nanos).c_str(),
                HumanDuration(c.facade_wait_nanos).c_str(),
                HumanDuration(c.page_latch_wait_nanos).c_str(),
                c.throughput_tps()));
          }
        }
      }
    }
    std::remove(snapshot_path.c_str());
    bench::PrintTable(table);

    std::printf("version-store behaviour:\n");
    for (const std::string& line : gc_lines) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("per-client breakdown:\n");
    for (const std::string& line : per_client_lines) {
      std::printf("%s\n", line.c_str());
    }
  }

  if (SectionEnabled("shard")) {
    // --- Shard section: SHARDN × CLIENTN × {2PL, MVCC} ------------------
    const std::vector<uint32_t> shard_counts = ShardCounts();
    const std::string shard_snapshot = "bench_multiclient_shard.ocbsnap";
    TextTable stable({"Shards", "Clients", "Mode", "Committed", "Aborted",
                      "Lock wait", "X-shard txns", "X-shard frac",
                      "2PC time", "Wall time", "Throughput (txn/s)"});
    std::vector<std::string> per_shard_lines;
    std::vector<std::string> tail_lines;
    struct ShardPoint {
      uint64_t lock_wait = 0;
      double throughput = 0.0;
      bool present = false;
    };
    std::map<std::tuple<uint32_t, uint32_t, std::string>, ShardPoint>
        shard_points;

    for (uint32_t shards : shard_counts) {
      // Same seed at every SHARDN: round-robin creation over strided
      // per-shard oid progressions reproduces the identical logical
      // graph, so points differ only in partitioning.
      {
        ShardedDatabase generated(storage, shards);
        OcbPreset preset = presets::Default();
        preset.database.num_objects = 6000;
        preset.database.seed = 29;
        if (!GenerateDatabase(preset.database, &generated).ok()) {
          std::fprintf(stderr, "sharded generation failed\n");
          return 1;
        }
        if (!SaveShardedSnapshot(&generated, shard_snapshot).ok()) {
          std::fprintf(stderr, "sharded snapshot save failed\n");
          return 1;
        }
      }
      for (uint32_t clients : std::vector<uint32_t>{2, 8}) {
        for (const bool mvcc : {false, true}) {
          // Lock-wait at these scales is scheduler-noisy (a handful of
          // multi-ms waits): the CLIENTN=8 points — the headline
          // comparison — run three repetitions and report the
          // median-by-lock-wait rep.
          const int reps = (clients == 8 && !smoke) ? 3 : 1;
          struct Rep {
            MultiClientReport report;
            std::vector<std::string> shard_lines;
          };
          std::vector<Rep> rep_results;
          const char* mode_name = mvcc ? "MVCC" : "2PL-only";
          const obs::MetricsSnapshot obs_before =
              obs::MetricsRegistry::Global().Snapshot();
          for (int rep = 0; rep < reps; ++rep) {
            ShardedDatabase db(storage, shards);
            if (!LoadShardedSnapshot(&db, shard_snapshot).ok()) {
              std::fprintf(stderr, "sharded snapshot load failed\n");
              return 1;
            }
            if (!db.ColdRestart().ok()) return 1;

            OcbPreset preset = presets::Default();
            preset.workload.client_count = clients;
            preset.workload.cold_transactions = cold_txns;
            preset.workload.hot_transactions = hot_txns;
            preset.workload.seed = 41;
            // Write-heavy mix: long X-lock holds (updates, neighborhood-
            // locking deletes, reference-wiring inserts) are what make
            // single-store lock waits pile up in the first place.
            preset.workload.p_set = 0.15;
            preset.workload.p_simple = 0.15;
            preset.workload.p_hierarchy = 0.10;
            preset.workload.p_stochastic = 0.10;
            preset.workload.p_update = 0.30;
            preset.workload.p_insert = 0.12;
            preset.workload.p_delete = 0.08;
            preset.workload.mvcc_snapshot_reads = mvcc;
            auto report = RunMultiClient(&db, preset.workload);
            if (!report.ok()) {
              std::fprintf(stderr, "sharded run failed: %s\n",
                           report.status().ToString().c_str());
              return 1;
            }
            Rep result;
            result.report = std::move(report).value();
            if (clients == 8) {
              for (uint32_t k = 0; k < shards; ++k) {
                const LockManagerStats ls =
                    db.shard(k)->lock_manager()->stats();
                result.shard_lines.push_back(Format(
                    "  SHARDN=%u %s shard %u: lock wait %s over %llu "
                    "waits, %llu deadlocks, %llu timeouts",
                    shards, mode_name, k,
                    HumanDuration(ls.total_wait_nanos).c_str(),
                    (unsigned long long)ls.waits,
                    (unsigned long long)ls.deadlocks,
                    (unsigned long long)ls.timeouts));
              }
            }
            rep_results.push_back(std::move(result));
          }
          std::sort(rep_results.begin(), rep_results.end(),
                    [](const Rep& a, const Rep& b) {
                      return a.report.total_lock_wait_nanos() <
                             b.report.total_lock_wait_nanos();
                    });
          // Window over all reps (per-rep windows would interleave with
          // nothing — each rep owns the process between the snapshots).
          const obs::MetricsSnapshot obs_window =
              obs::MetricsRegistry::Global().Snapshot().Diff(obs_before);
          const Rep& median = rep_results[rep_results.size() / 2];
          const MultiClientReport& report = median.report;
          const uint64_t txns = report.merged.cold.global.transactions +
                                report.merged.warm.global.transactions;
          if (json.enabled()) {
            json.BeginPoint();
            obs::JsonWriter& w = json.writer();
            w.Field("section", "shard")
                .Field("shards", shards)
                .Field("clients", clients)
                .Field("mode", mode_name)
                .Field("reps", reps)
                .Field("committed", txns)
                .Field("aborts", report.total_aborts())
                .Field("abort_rate", report.abort_rate())
                .Field("throughput_tps", report.throughput_tps())
                .Field("wall_micros", report.wall_micros)
                .Field("lock_wait_nanos", report.total_lock_wait_nanos())
                .Field("cross_shard_commits",
                       report.total_cross_shard_commits())
                .Field("cross_shard_fraction",
                       report.cross_shard_fraction())
                .Field("twopc_nanos", report.total_twopc_nanos());
            w.BeginObject("histograms");
            bench::WriteHistogramJson(w, "lock_wait",
                                      report.lock_wait_histogram());
            bench::WriteHistogramJson(w, "commit_latency",
                                      report.commit_latency_histogram());
            bench::WriteHistogramJson(w, "twopc",
                                      report.twopc_histogram());
            w.EndObject();
            w.Raw("registry", obs_window.ToJson());
            json.EndPoint();
          }
          shard_points[{shards, clients, mode_name}] =
              ShardPoint{report.total_lock_wait_nanos(),
                         report.throughput_tps(), true};
          stable.AddRow(
              {Format("%u", shards), Format("%u", clients), mode_name,
               Format("%llu", (unsigned long long)txns),
               Format("%llu", (unsigned long long)report.total_aborts()),
               HumanDuration(report.total_lock_wait_nanos()),
               Format("%llu", (unsigned long long)
                                  report.total_cross_shard_commits()),
               Format("%.1f%%", report.cross_shard_fraction() * 100.0),
               HumanDuration(report.total_twopc_nanos()),
               HumanDuration(report.wall_micros * 1000),
               Format("%.0f", report.throughput_tps())});
          for (const std::string& line : median.shard_lines) {
            per_shard_lines.push_back(line);
          }
          if (clients == 8) {
            const Histogram lw = report.lock_wait_histogram();
            const Histogram cl = report.commit_latency_histogram();
            const Histogram tp = report.twopc_histogram();
            tail_lines.push_back(Format(
                "  SHARDN=%u %s: lock wait p50 %s p95 %s p99 %s; commit "
                "latency p50 %s p95 %s p99 %s; 2pc p50 %s p95 %s p99 %s",
                shards, mode_name,
                HumanDuration(lw.Percentile(50)).c_str(),
                HumanDuration(lw.Percentile(95)).c_str(),
                HumanDuration(lw.Percentile(99)).c_str(),
                HumanDuration(cl.Percentile(50)).c_str(),
                HumanDuration(cl.Percentile(95)).c_str(),
                HumanDuration(cl.Percentile(99)).c_str(),
                HumanDuration(tp.Percentile(50)).c_str(),
                HumanDuration(tp.Percentile(95)).c_str(),
                HumanDuration(tp.Percentile(99)).c_str()));
          }
        }
      }
      for (uint32_t k = 0; k < shards; ++k) {
        std::remove((shard_snapshot + Format(".shard%u", k)).c_str());
      }
    }
    bench::PrintTable(stable);

    const uint32_t base = shard_counts.front();
    const uint32_t top = shard_counts.back();
    if (top != base) {
      std::printf(
          "sharding win at CLIENTN=8 (write-heavy mix, same data, "
          "median of 3 runs):\n");
      for (const char* mode_name : {"2PL-only", "MVCC"}) {
        const ShardPoint& one = shard_points[{base, 8u, mode_name}];
        const ShardPoint& many = shard_points[{top, 8u, mode_name}];
        if (!one.present || !many.present) continue;
        const double wait_ratio =
            many.lock_wait > 0
                ? static_cast<double>(one.lock_wait) /
                      static_cast<double>(many.lock_wait)
                : 0.0;
        std::printf(
            "  %s: aggregate lock wait %s (SHARDN=%u) -> %s (SHARDN=%u)"
            " (%s), throughput %.0f -> %.0f txn/s\n",
            mode_name, HumanDuration(one.lock_wait).c_str(), base,
            HumanDuration(many.lock_wait).c_str(), top,
            many.lock_wait == 0
                ? "eliminated"
                : Format("%.1fx less", wait_ratio).c_str(),
            one.throughput, many.throughput);
      }
    }
    std::printf(
      "per-shard lock managers (CLIENTN=8 rows, median run):\n");
    for (const std::string& line : per_shard_lines) {
      std::printf("%s\n", line.c_str());
    }
    std::printf(
        "per-transaction tails (CLIENTN=8 rows, median run — sums above "
        "hide what victim policies and 2PC actually cost per txn):\n");
    for (const std::string& line : tail_lines) {
      std::printf("%s\n", line.c_str());
    }
  }

  if (SectionEnabled("groupcommit")) {
    // --- Group-commit section: commit-pipeline batch cap ∈ {1, 8, 32} --
    //
    // A commit *storm*: CLIENTN=8 client threads each write a disjoint
    // object inside a Session transaction and then hit Commit together
    // (barrier-aligned rounds). Every commit carries a pending version
    // to stamp, so the serialized commit-path work — timestamp draw +
    // stamping under the version-store commit mutex, plus the
    // coordinator commit mutex and in-flight registry on the sharded
    // engine — is real; the sweep shows how the pipeline's batch cap
    // amortizes it. The storm (rather than the cold/warm protocol) is
    // what makes batches *form* on a single-core host: the protocol's
    // commits are spread across long transactions and rarely collide.
    constexpr uint32_t kGcClients = 8;
    // Caps > 1 also open a 200 µs accumulation window (the
    // binlog_group_commit_sync_delay idea): on a single-core host the
    // serialized batch work alone is far shorter than a scheduling
    // quantum, so without the window no follower ever lands in the
    // queue and every "batch" is one transaction.
    constexpr uint64_t kGcWindowNanos = 200'000;
    // Simulated commit-record force: ~1 ms (a sequential log write on
    // the 1998 disk — no seek), charged once per commit batch. This is
    // the cost group commit classically amortizes.
    constexpr uint64_t kGcLogForceNanos = 1'000'000;
    const uint32_t gc_rounds = smoke ? 50 : 400;
    StorageOptions gc_storage = storage;
    gc_storage.commit_log_force_nanos = kGcLogForceNanos;
    TextTable gtable({"Engine", "Batch cap", "Commits", "Batches",
                      "Mean batch", "Max batch", "Batch work",
                      "ns/commit", "Log force (sim)", "Wall time"});
    struct GcPoint {
      uint64_t batch_nanos = 0;
      uint64_t commits = 0;
      uint64_t log_nanos = 0;
    };
    std::map<std::pair<std::string, uint32_t>, GcPoint> gc_points;

    // One storm over any engine the Session API speaks for.
    auto run_storm = [&](auto& db, const std::vector<Oid>& sources,
                         const std::vector<Oid>& targets) {
      std::barrier sync(static_cast<std::ptrdiff_t>(kGcClients));
      std::vector<std::thread> clients;
      for (uint32_t c = 0; c < kGcClients; ++c) {
        clients.emplace_back([&, c]() {
          auto session = db.OpenSession();
          for (uint32_t round = 0; round < gc_rounds; ++round) {
            auto txn = session.Begin();
            // Disjoint footprints: no lock conflicts, only commit-path
            // contention. Alternate the slot so every round writes.
            (void)txn.SetReference(sources[c], round % 2,
                                   round % 4 < 2 ? targets[c]
                                                 : kInvalidOid);
            sync.arrive_and_wait();  // Commit together.
            (void)txn.Commit();
          }
        });
      }
      for (auto& t : clients) t.join();
    };
    auto add_row = [&](const std::string& engine, uint32_t cap,
                       const GroupCommitStats& gc, uint64_t log_nanos,
                       uint64_t wall_nanos,
                       const obs::MetricsSnapshot& obs_window) {
      gc_points[{engine, cap}] =
          GcPoint{gc.batch_nanos, gc.commits, log_nanos};
      const uint64_t per_commit =
          gc.commits == 0 ? 0 : gc.batch_nanos / gc.commits;
      gtable.AddRow({engine, Format("%u", cap),
                     Format("%llu", (unsigned long long)gc.commits),
                     Format("%llu", (unsigned long long)gc.batches),
                     Format("%.2f", gc.mean_batch()),
                     Format("%llu", (unsigned long long)gc.max_batch_formed),
                     HumanDuration(gc.batch_nanos),
                     Format("%llu", (unsigned long long)per_commit),
                     HumanDuration(log_nanos),
                     HumanDuration(wall_nanos)});
      if (json.enabled()) {
        json.BeginPoint();
        json.writer()
            .Field("section", "groupcommit")
            .Field("engine", engine)
            .Field("batch_cap", cap)
            .Field("commits", gc.commits)
            .Field("batches", gc.batches)
            .Field("mean_batch", gc.mean_batch())
            .Field("max_batch", gc.max_batch_formed)
            .Field("batch_nanos", gc.batch_nanos)
            .Field("nanos_per_commit", per_commit)
            .Field("log_force_nanos", log_nanos)
            .Field("wall_nanos", wall_nanos)
            .Raw("registry", obs_window.ToJson());
        json.EndPoint();
      }
    };
    auto now_nanos = []() {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };

    for (uint32_t cap : std::vector<uint32_t>{1, 8, 32}) {
      // Single store: 8 disjoint source/target pairs.
      Database db(gc_storage);
      OcbPreset preset = presets::Default();
      preset.database.num_classes = 2;
      preset.database.num_objects = 64;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &db).ok()) return 1;
      db.SetGroupCommitMaxBatch(cap);
      if (cap > 1) db.SetGroupCommitWindow(kGcWindowNanos);
      std::vector<Oid> sources, targets;
      const std::vector<Oid> live = db.LiveOidsSnapshot();
      for (uint32_t c = 0; c < kGcClients; ++c) {
        sources.push_back(live[c]);
        targets.push_back(live[kGcClients + c]);
      }
      const uint64_t sim_start = db.SimNowNanos();
      const obs::MetricsSnapshot obs_before =
          obs::MetricsRegistry::Global().Snapshot();
      const uint64_t start = now_nanos();
      run_storm(db, sources, targets);
      const uint64_t wall = now_nanos() - start;
      // The storm's footprint stays cached after round one, so the sim
      // delta is essentially the commit-record forces.
      add_row("single", cap, db.group_commit_stats(),
              db.SimNowNanos() - sim_start, wall,
              obs::MetricsRegistry::Global().Snapshot().Diff(obs_before));
    }

    for (uint32_t cap : std::vector<uint32_t>{1, 8, 32}) {
      // Sharded: every source/target pair spans both shards, so every
      // commit is a 2PC member going through the coordinator's grouped
      // commit-mutex section.
      ShardedDatabase db(gc_storage, 2);
      OcbPreset preset = presets::Default();
      preset.database.num_classes = 2;
      preset.database.num_objects = 64;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &db).ok()) return 1;
      db.SetGroupCommitMaxBatch(cap);
      if (cap > 1) db.SetGroupCommitWindow(kGcWindowNanos);
      std::vector<Oid> sources, targets;
      const std::vector<Oid> live = db.LiveOidsSnapshot();
      for (uint32_t c = 0; c < kGcClients; ++c) {
        const Oid source = live[c];
        // A target on the other shard: with 2 shards and dense oids,
        // the neighbour oid routes to the opposite shard.
        const Oid target = live[kGcClients + (c ^ 1u)];
        sources.push_back(source);
        targets.push_back(
            db.router().ShardOf(source) != db.router().ShardOf(target)
                ? target
                : live[kGcClients + c]);
      }
      const uint64_t sim_start = db.SimNowNanos();
      const obs::MetricsSnapshot obs_before =
          obs::MetricsRegistry::Global().Snapshot();
      const uint64_t start = now_nanos();
      run_storm(db, sources, targets);
      const uint64_t wall = now_nanos() - start;
      add_row("SHARDN=2", cap, db.group_commit_stats(),
              db.SimNowNanos() - sim_start, wall,
              obs::MetricsRegistry::Global().Snapshot().Diff(obs_before));
    }
    bench::PrintTable(gtable);

    std::printf(
        "group commit at CLIENTN=8 ('batch work' = wall time inside the "
        "pipeline's serialized sections — timestamp draws, version "
        "stamping, coordinator commit mutex — entered once per batch; "
        "'log force' = simulated commit-record fsyncs at %.1f ms each, "
        "one per batch):\n",
        kGcLogForceNanos / 1e6);
    for (const char* engine : {"single", "SHARDN=2"}) {
      const GcPoint base = gc_points[{engine, 1u}];
      const GcPoint best = gc_points[{engine, 32u}];
      if (base.commits == 0 || best.commits == 0) continue;
      const double section_ratio =
          best.batch_nanos == 0
              ? 0.0
              : static_cast<double>(base.batch_nanos) /
                    static_cast<double>(best.batch_nanos);
      const double log_ratio =
          best.log_nanos == 0 ? 0.0
                              : static_cast<double>(base.log_nanos) /
                                    static_cast<double>(best.log_nanos);
      std::printf(
          "  %s: commit-path time %s batch work + %s log force (cap 1) "
          "-> %s + %s (cap 32): log cost %.1fx less, serialized-section "
          "entries %.1fx fewer%s\n",
          engine, HumanDuration(base.batch_nanos).c_str(),
          HumanDuration(base.log_nanos).c_str(),
          HumanDuration(best.batch_nanos).c_str(),
          HumanDuration(best.log_nanos).c_str(), log_ratio,
          log_ratio,  // Sections == batches == forces by construction.
          section_ratio >= 1.0 ? "" :
          " (per-batch work grows with batch size; the win is the "
          "once-per-batch costs)");
    }
  }

  if (SectionEnabled("wal")) {
    // --- WAL section: real durability on vs off under a commit storm ---
    //
    // Same storm shape as the group-commit section (CLIENTN=8,
    // barrier-aligned commits, batch cap 8) but sweeping the REAL redo
    // WAL: wal=off is the seed's in-memory commit path, wal=on appends
    // every commit's post-images and fsyncs once per batch before acks
    // (plus, sharded, the coordinator marker log of the 2PC
    // choreography). The appends/forces columns come from the writers
    // themselves, so the ratio commits:forces shows the group-commit
    // amortization applied to a real fsync instead of a simulated one.
    constexpr uint32_t kWalClients = 8;
    const uint32_t wal_rounds = smoke ? 50 : 200;
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string wal_base =
        std::string(tmpdir != nullptr && tmpdir[0] != '\0' ? tmpdir
                                                           : "/tmp") +
        Format("/ocb_bench_multiclient_%d.wal", static_cast<int>(getpid()));
    auto remove_wal_files = [&]() {
      std::remove(wal_base.c_str());
      std::remove((wal_base + ".coord").c_str());
      for (uint32_t k = 0; k < 2; ++k) {
        std::remove((wal_base + Format(".shard%u", k)).c_str());
      }
    };
    TextTable wtable({"Engine", "WAL", "Commits", "Batches", "Appends",
                      "Forces", "ns/commit (wall)", "Wall time"});
    auto now_nanos = []() {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
    auto wal_storm = [&](auto& db, const std::vector<Oid>& sources,
                         const std::vector<Oid>& targets) {
      std::barrier sync(static_cast<std::ptrdiff_t>(kWalClients));
      std::vector<std::thread> clients;
      for (uint32_t c = 0; c < kWalClients; ++c) {
        clients.emplace_back([&, c]() {
          auto session = db.OpenSession();
          for (uint32_t round = 0; round < wal_rounds; ++round) {
            auto txn = session.Begin();
            (void)txn.SetReference(sources[c], round % 2,
                                   round % 4 < 2 ? targets[c]
                                                 : kInvalidOid);
            sync.arrive_and_wait();
            (void)txn.Commit();
          }
        });
      }
      for (auto& t : clients) t.join();
    };
    auto add_wal_row = [&](const std::string& engine, bool wal_on,
                           const GroupCommitStats& gc, uint64_t appends,
                           uint64_t forces, uint64_t wall_nanos) {
      const uint64_t per_commit =
          gc.commits == 0 ? 0 : wall_nanos / gc.commits;
      wtable.AddRow({engine, wal_on ? "on" : "off",
                     Format("%llu", (unsigned long long)gc.commits),
                     Format("%llu", (unsigned long long)gc.batches),
                     Format("%llu", (unsigned long long)appends),
                     Format("%llu", (unsigned long long)forces),
                     Format("%llu", (unsigned long long)per_commit),
                     HumanDuration(wall_nanos)});
      if (json.enabled()) {
        json.BeginPoint();
        json.writer()
            .Field("section", "wal")
            .Field("engine", engine)
            .Field("wal", wal_on ? 1 : 0)
            .Field("commits", gc.commits)
            .Field("batches", gc.batches)
            .Field("wal_appends", appends)
            .Field("wal_forces", forces)
            .Field("nanos_per_commit", per_commit)
            .Field("wall_nanos", wall_nanos);
        json.EndPoint();
      }
    };

    for (bool wal_on : {false, true}) {
      remove_wal_files();
      StorageOptions wal_storage = storage;
      if (wal_on) wal_storage.wal_path = wal_base;
      Database db(wal_storage);
      OcbPreset preset = presets::Default();
      preset.database.num_classes = 2;
      preset.database.num_objects = 64;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &db).ok()) return 1;
      db.SetGroupCommitMaxBatch(8);
      db.SetGroupCommitWindow(200'000);
      std::vector<Oid> sources, targets;
      const std::vector<Oid> live = db.LiveOidsSnapshot();
      for (uint32_t c = 0; c < kWalClients; ++c) {
        sources.push_back(live[c]);
        targets.push_back(live[kWalClients + c]);
      }
      const uint64_t start = now_nanos();
      wal_storm(db, sources, targets);
      const uint64_t wall = now_nanos() - start;
      add_wal_row("single", wal_on, db.group_commit_stats(),
                  wal_on ? db.wal()->appended_records() : 0,
                  wal_on ? db.wal()->forces() : 0, wall);
    }

    for (bool wal_on : {false, true}) {
      remove_wal_files();
      StorageOptions wal_storage = storage;
      if (wal_on) wal_storage.wal_path = wal_base;
      ShardedDatabase db(wal_storage, 2);
      OcbPreset preset = presets::Default();
      preset.database.num_classes = 2;
      preset.database.num_objects = 64;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &db).ok()) return 1;
      db.SetGroupCommitMaxBatch(8);
      db.SetGroupCommitWindow(200'000);
      std::vector<Oid> sources, targets;
      const std::vector<Oid> live = db.LiveOidsSnapshot();
      for (uint32_t c = 0; c < kWalClients; ++c) {
        const Oid source = live[c];
        const Oid target = live[kWalClients + (c ^ 1u)];
        sources.push_back(source);
        targets.push_back(
            db.router().ShardOf(source) != db.router().ShardOf(target)
                ? target
                : live[kWalClients + c]);
      }
      const uint64_t start = now_nanos();
      wal_storm(db, sources, targets);
      const uint64_t wall = now_nanos() - start;
      uint64_t appends = 0, forces = 0;
      if (wal_on) {
        for (uint32_t k = 0; k < 2; ++k) {
          appends += db.shard(k)->wal()->appended_records();
          forces += db.shard(k)->wal()->forces();
        }
        appends += db.coordinator()->coord_wal()->appended_records();
        forces += db.coordinator()->coord_wal()->forces();
      }
      add_wal_row("SHARDN=2", wal_on, db.group_commit_stats(), appends,
                  forces, wall);
    }
    remove_wal_files();
    bench::PrintTable(wtable);
    std::printf(
        "real WAL at CLIENTN=8, batch cap 8: wal=on appends one redo "
        "record per committed writer and fsyncs once per batch before "
        "any ack (sharded rows add the 2PC participant records and the "
        "coordinator marker log); compare Forces to Commits for the "
        "amortization, wal=off rows for the durability overhead.\n");
  }

  if (SectionEnabled("io")) {
    // --- I/O section: blocking vs async physical I/O under misses ---
    //
    // Wall-clock latency injection (400 µs per page, real sleeps) with a
    // 64-page buffer pool under a database hundreds of pages large, so
    // the scattered GetMany batches and breadth-first traversals below
    // fault many pages per call. io_workers=0 keeps the seed's blocking
    // path: each miss executes inline and the calling thread eats the
    // full device latency, one page at a time. io_workers=16 issues
    // every batched miss to the worker group before awaiting any — the
    // batch completes in ceil(misses/workers) device latencies instead
    // of `misses` — and dirty victims drain through the background
    // write-back flusher off the fetch path. Same storm, same seed, same
    // access sequence; only the I/O submission discipline differs.
    constexpr uint32_t kIoClients = 4;
    constexpr uint32_t kIoBatch = 32;
    const uint32_t io_rounds = smoke ? 6 : 40;
    const std::string io_snapshot = "bench_multiclient_io.ocbsnap";
    {
      Database generated(storage);
      OcbPreset preset = presets::Default();
      preset.database.num_objects = 6000;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &generated).ok()) {
        std::fprintf(stderr, "generation failed\n");
        return 1;
      }
      if (!SaveSnapshot(&generated, io_snapshot).ok()) {
        std::fprintf(stderr, "snapshot save failed\n");
        return 1;
      }
    }
    TextTable iotable({"Mode", "Workers", "Committed", "Misses", "Overlap",
                       "WB peak", "io.wait p95", "Wall time",
                       "Throughput (txn/s)"});
    auto now_nanos = []() {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
    double blocking_tps = 0.0;
    double async_tps = 0.0;
    for (const uint32_t workers : std::vector<uint32_t>{0, 32}) {
      StorageOptions io_storage = storage;
      io_storage.buffer_pool_pages = 64;
      io_storage.wall_clock_io = true;
      io_storage.read_latency_nanos = 400'000;
      io_storage.write_latency_nanos = 400'000;
      io_storage.io_workers = workers;
      Database db(io_storage);
      if (!LoadSnapshot(&db, io_snapshot).ok()) {
        std::fprintf(stderr, "snapshot load failed\n");
        return 1;
      }
      const std::vector<Oid> live = db.LiveOidsSnapshot();
      // Reads draw from the first half of the extent, the per-client
      // write pairs from the second, so the storm's S locks never meet
      // its X locks and every round commits.
      const size_t half = live.size() / 2;
      std::vector<Oid> sources, targets;
      for (uint32_t c = 0; c < kIoClients; ++c) {
        sources.push_back(live[half + c]);
        targets.push_back(live[half + kIoClients + c]);
      }
      const uint64_t misses_before =
          db.buffer_pool()->stats().misses.load(std::memory_order_relaxed);
      const uint64_t serial_before = db.disk()->serial_io_nanos();
      const uint64_t charged_before = db.disk()->charged_io_nanos();
      const obs::MetricsSnapshot obs_before =
          obs::MetricsRegistry::Global().Snapshot();
      std::atomic<uint64_t> committed{0};
      std::vector<std::thread> clients;
      const uint64_t start = now_nanos();
      for (uint32_t c = 0; c < kIoClients; ++c) {
        clients.emplace_back([&, c]() {
          auto session = db.OpenSession();
          for (uint32_t round = 0; round < io_rounds; ++round) {
            auto txn = session.Begin();
            // Scattered batch: a multiplicative stride walks far apart
            // in oid space, so the batch spans ~kIoBatch distinct pages
            // and each round faults a fresh set.
            std::vector<Oid> batch;
            batch.reserve(kIoBatch);
            for (uint32_t j = 0; j < kIoBatch; ++j) {
              const uint64_t idx =
                  (uint64_t{c} * 1009 + uint64_t{round} * 9176 +
                   uint64_t{j} * 613) %
                  half;
              batch.push_back(live[idx]);
            }
            auto objs = txn.GetMany(batch);
            if (!objs.ok()) continue;  // Deadlock victim: txn is dead.
            if (!objs.value().empty()) {
              TraversePolicy policy;
              policy.kind = TraverseKind::kBreadthFirst;
              if (!txn.Traverse(objs.value().front(), 2, policy).ok()) {
                continue;
              }
            }
            // One reference write per round keeps dirty victims flowing
            // into the background flusher.
            (void)txn.SetReference(sources[c], round % 2,
                                   round % 4 < 2 ? targets[c]
                                                 : kInvalidOid);
            if (txn.Commit().ok()) {
              committed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      const uint64_t wall = now_nanos() - start;
      const obs::MetricsSnapshot obs_window =
          obs::MetricsRegistry::Global().Snapshot().Diff(obs_before);
      const uint64_t misses =
          db.buffer_pool()->stats().misses.load(std::memory_order_relaxed) -
          misses_before;
      const uint64_t serial = db.disk()->serial_io_nanos() - serial_before;
      const uint64_t charged =
          db.disk()->charged_io_nanos() - charged_before;
      const double overlap =
          charged == 0 ? 1.0
                       : static_cast<double>(serial) /
                             static_cast<double>(charged);
      const uint64_t wb_peak = db.buffer_pool()->writeback_peak_depth();
      const obs::HistogramStats io_wait = obs_window.Histo("io.wait");
      const double tps =
          wall == 0 ? 0.0
                    : static_cast<double>(committed.load()) * 1e9 /
                          static_cast<double>(wall);
      const char* mode_name = workers == 0 ? "blocking" : "async";
      if (workers == 0) {
        blocking_tps = tps;
      } else {
        async_tps = tps;
      }
      iotable.AddRow(
          {mode_name, Format("%u", workers),
           Format("%llu", (unsigned long long)committed.load()),
           Format("%llu", (unsigned long long)misses),
           Format("%.2fx", overlap),
           Format("%llu", (unsigned long long)wb_peak),
           HumanDuration(io_wait.p95),
           HumanDuration(wall),
           Format("%.0f", tps)});
      if (json.enabled()) {
        json.BeginPoint();
        obs::JsonWriter& w = json.writer();
        w.Field("section", "io")
            .Field("mode", mode_name)
            .Field("io_workers", workers)
            .Field("clients", kIoClients)
            .Field("committed", committed.load())
            .Field("throughput_tps", tps)
            .Field("wall_micros", wall / 1000)
            .Field("misses_issued", misses)
            .Field("overlap_ratio", overlap)
            .Field("flusher_peak_depth", wb_peak);
        w.BeginObject("histograms");
        w.BeginObject("io_wait")
            .Field("count", io_wait.count)
            .Field("mean", io_wait.mean())
            .Field("p50", io_wait.p50)
            .Field("p95", io_wait.p95)
            .Field("p99", io_wait.p99)
            .Field("max", io_wait.max)
            .EndObject();
        w.EndObject();
        w.Raw("registry", obs_window.ToJson());
        json.EndPoint();
      }
    }
    std::remove(io_snapshot.c_str());
    bench::PrintTable(iotable);
    if (blocking_tps > 0.0) {
      std::printf(
          "async/blocking wall-clock throughput: %.2fx (acceptance floor "
          "2.00x) — same storm, 400us/page injected latency; the async "
          "row issues each GetMany/frontier batch's misses before "
          "awaiting any and retires dirty victims through the background "
          "flusher.\n",
          async_tps / blocking_tps);
    }
  }

  if (SectionEnabled("cc")) {
    // --- CC section: CC_ALG × CLIENTN on read-mostly vs write-hot -------
    //
    // The concurrency-control axis (writer TxnMode): one storm run three
    // times, every transaction under strict 2PL, then snapshot-isolation
    // writers, then Silo OCC. Read-mostly (eight scattered reads, an
    // occasional write into the big pool) is the optimistic algorithms'
    // home turf: their reads take no locks and never queue behind the
    // writers' X locks, and validation almost always succeeds. Write-hot
    // (every transaction read-modify-writes two objects of a
    // 16-object hot set) inverts it: 2PL serializes on the locks and
    // commits nearly everything it admits, while SI/OCC do the work
    // first and throw it away at validation — the crossover that makes
    // CC a per-transaction choice instead of an engine property.
    constexpr uint32_t kCcHotSet = 16;
    constexpr uint32_t kCcReadBatch = 8;
    const uint32_t cc_rounds = smoke ? 30 : 200;
    const std::string cc_snapshot = "bench_multiclient_cc.ocbsnap";
    {
      Database generated(storage);
      OcbPreset preset = presets::Default();
      preset.database.num_objects = 2000;
      preset.database.seed = 29;
      if (!GenerateDatabase(preset.database, &generated).ok()) {
        std::fprintf(stderr, "generation failed\n");
        return 1;
      }
      if (!SaveSnapshot(&generated, cc_snapshot).ok()) {
        std::fprintf(stderr, "snapshot save failed\n");
        return 1;
      }
    }
    TextTable ctable({"Mix", "Clients", "CC", "Committed", "Conflicts",
                      "Abort rate", "Wall time", "Throughput (txn/s)"});
    struct CcPoint {
      double tps = 0.0;
      double abort_rate = 0.0;
      bool present = false;
    };
    std::map<std::pair<std::string, std::string>, CcPoint> cc_points;
    auto now_nanos = []() {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count());
    };
    for (const char* mix : {"read-mostly", "write-hot"}) {
      const bool write_hot = std::strcmp(mix, "write-hot") == 0;
      for (uint32_t clients : std::vector<uint32_t>{2, 8}) {
        for (const TxnMode cc : {TxnMode::k2PL, TxnMode::kSI, TxnMode::kOCC}) {
          Database db(storage);
          if (!LoadSnapshot(&db, cc_snapshot).ok()) {
            std::fprintf(stderr, "snapshot load failed\n");
            return 1;
          }
          const std::vector<Oid> live = db.LiveOidsSnapshot();
          std::atomic<uint64_t> committed{0};
          std::atomic<uint64_t> conflicts{0};
          const obs::MetricsSnapshot obs_before =
              obs::MetricsRegistry::Global().Snapshot();
          std::vector<std::thread> workers;
          // Without the start barrier a short storm runs serially —
          // each thread finishes before the next one spawns — and the
          // contention being measured never happens.
          std::barrier start_sync(static_cast<std::ptrdiff_t>(clients));
          const uint64_t start = now_nanos();
          for (uint32_t c = 0; c < clients; ++c) {
            workers.emplace_back([&, c]() {
              auto session = db.OpenSession();
              std::mt19937 rng(17 + c);
              start_sync.arrive_and_wait();
              for (uint32_t round = 0; round < cc_rounds; ++round) {
                auto txn = session.Begin(cc);
                bool lost = false;
                if (write_hot) {
                  // Two hot-set read-modify-writes, ascending (a fair
                  // deterministic lock order for the 2PL rows).
                  uint32_t i = rng() % kCcHotSet;
                  uint32_t j = rng() % kCcHotSet;
                  if (i == j) j = (j + 1) % kCcHotSet;
                  if (j < i) std::swap(i, j);
                  for (const uint32_t idx : {i, j}) {
                    auto obj = txn.Get(live[idx]);
                    if (!obj.ok()) { lost = true; break; }
                    obj->orefs[0] =
                        round % 2 == 0 ? live[idx] : kInvalidOid;
                    if (!txn.Put(obj.value()).ok()) { lost = true; break; }
                  }
                } else {
                  for (uint32_t j = 0; j < kCcReadBatch && !lost; ++j) {
                    const size_t idx =
                        (size_t{c} * 1009 + size_t{round} * 9176 +
                         size_t{j} * 613) % live.size();
                    if (!txn.Get(live[idx]).ok()) lost = true;
                  }
                  if (!lost && round % kCcReadBatch == c % kCcReadBatch) {
                    const size_t idx = rng() % live.size();
                    auto obj = txn.Get(live[idx]);
                    if (obj.ok()) {
                      obj->orefs[0] = round % 2 == 0 ? live[idx]
                                                     : kInvalidOid;
                      if (!txn.Put(obj.value()).ok()) lost = true;
                    } else {
                      lost = true;
                    }
                  }
                }
                if (lost) {
                  conflicts.fetch_add(1, std::memory_order_relaxed);
                  (void)txn.Abort();
                  continue;
                }
                if (txn.Commit().ok()) {
                  committed.fetch_add(1, std::memory_order_relaxed);
                } else {
                  conflicts.fetch_add(1, std::memory_order_relaxed);
                }
              }
            });
          }
          for (auto& w : workers) w.join();
          const uint64_t wall = now_nanos() - start;
          const obs::MetricsSnapshot obs_window =
              obs::MetricsRegistry::Global().Snapshot().Diff(obs_before);
          const uint64_t done = committed.load();
          const uint64_t lost = conflicts.load();
          const double abort_rate =
              done + lost == 0
                  ? 0.0
                  : static_cast<double>(lost) /
                        static_cast<double>(done + lost);
          const double tps =
              wall == 0 ? 0.0
                        : static_cast<double>(done) * 1e9 /
                              static_cast<double>(wall);
          const char* algo = TxnModeToString(cc);
          if (clients == 8) {
            cc_points[{mix, algo}] = CcPoint{tps, abort_rate, true};
          }
          ctable.AddRow({mix, Format("%u", clients), algo,
                         Format("%llu", (unsigned long long)done),
                         Format("%llu", (unsigned long long)lost),
                         Format("%.1f%%", abort_rate * 100.0),
                         HumanDuration(wall), Format("%.0f", tps)});
          if (json.enabled()) {
            json.BeginPoint();
            json.writer()
                .Field("section", "cc")
                .Field("algo", algo)
                .Field("mix", mix)
                .Field("clients", clients)
                .Field("committed", done)
                .Field("conflict_aborts", lost)
                .Field("abort_rate", abort_rate)
                .Field("throughput_tps", tps)
                .Field("wall_micros", wall / 1000)
                .Raw("registry", obs_window.ToJson());
            json.EndPoint();
          }
        }
      }
    }
    std::remove(cc_snapshot.c_str());
    bench::PrintTable(ctable);
    std::printf(
        "CC crossover at CLIENTN=8 (conflicts = deadlock victims under "
        "2PL, validation losses under SI/OCC):\n");
    for (const char* mix : {"read-mostly", "write-hot"}) {
      const CcPoint& two_pl = cc_points[{mix, "2pl"}];
      const CcPoint& si = cc_points[{mix, "si"}];
      const CcPoint& occ = cc_points[{mix, "occ"}];
      if (!two_pl.present || !si.present || !occ.present) continue;
      std::printf(
          "  %s: 2PL %.0f txn/s (%.1f%% aborted), SI %.0f (%.1f%%), "
          "OCC %.0f (%.1f%%)\n",
          mix, two_pl.tps, two_pl.abort_rate * 100.0, si.tps,
          si.abort_rate * 100.0, occ.tps, occ.abort_rate * 100.0);
    }
  }

  bench::PrintNote(
      "CLIENTN > 1 runs real std::thread clients over one shared engine. "
      "Latch section: 'locking' readers take S locks, 'snapshot' readers "
      "pin a ReadView; both run on the striped buffer pool with "
      "per-frame reader/writer latches. Shard section: SHARDN independent "
      "Database shards — "
      "per-shard lock managers, version stores, buffer pools — behind "
      "hash-by-oid routing; single-shard transactions skip 2PC, "
      "cross-shard ones prepare on every writer shard and commit under "
      "one coordinator timestamp, and MVCC readers pin one global "
      "snapshot point across all shards; the coordinator's global "
      "wait-for graph refuses cross-shard deadlock cycles that no "
      "per-shard detector can see. Caveat: "
      "on a single-core host 2PL-only lock wait is object-conflict and "
      "scheduler bound — conflicts are identical at every SHARDN, so "
      "expect parity there and read the sharding win off the MVCC rows; "
      "multi-core hosts overlap the shards' lock holders and shrink "
      "both. See ARCHITECTURE.md.");

  json.Write();
  const std::string trace_path = obs::TraceRecorder::DumpToEnvPath();
  if (!trace_path.empty()) {
    std::printf("trace written: %s (open in ui.perfetto.dev or "
                "chrome://tracing)\n",
                trace_path.c_str());
  }
  return 0;
}
