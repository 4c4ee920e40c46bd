/// \file bench_ocb.cc
/// \brief The OCB benchmark program: runs one workload in this process and
///        prints every metric as a `workload metric value unit` line and
///        as one JSON object on the last line of standard output.
///
///   bench_ocb --workload ocb-read --seed 1998 --seconds 10 --trace 0
///             [--smoke] [--work-dir DIR] [--trace-file FILE]
///
/// It drives the engine through its public API only — OCB's own
/// TransactionExecutorT/GenerateDatabase/RunBeforeAfterOnDatabase and the
/// engine's stats accessors — and times every call from outside. It never
/// flips an engine-wide mode (serialized physical I/O, MVCC, deadlock
/// policy, group-commit tuning): locking readers are asked for per
/// transaction through WorkloadParameters::mvcc_snapshot_reads.
///
/// Load is a closed loop: kClients threads, each waiting for its
/// transaction to finish before drawing the next, with no think time. An
/// aborted transaction (deadlock victim, lock timeout) is retried with the
/// same type and root until it commits, so every counted transaction
/// commits and its latency includes its retries.
///
/// --seed N seeds generation with N and the workload with N + 1; the same
/// seed gives the same database and the same transaction stream per
/// client. Set-up (generate, checkpoint, cold restart) runs kSetups times
/// and reports its median; the database of the last set-up is measured.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <sys/mman.h>

#include "clustering/dstc.h"
#include "obs/metrics_registry.h"
#include "ocb/experiment.h"
#include "ocb/generator.h"
#include "ocb/transaction.h"
#include "oodb/database.h"
#include "oodb/snapshot.h"
#include "sharding/sharded_database.h"
#include "storage/disk_sim.h"
#include "util/rng.h"
#include "util/status.h"
#include "wal/recovery.h"

namespace ocb {
namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kClients = 4;
constexpr int kSetups = 3;
/// A transaction still aborting after this many attempts counts as failed.
constexpr uint32_t kMaxAttempts = 100;
/// Retry backoff after the k-th abort: uniform in [0, unit * 2^min(k, 10)].
constexpr int64_t kBackoffUnitUs = 50;
/// Share of --seconds spent warming the pool before the measured window.
constexpr double kWarmupShare = 0.2;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Nearest-rank percentile (q in (0, 1]) of \p v; sorts it in place.
double Percentile(std::vector<uint64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  return static_cast<double>((*v)[std::max<size_t>(rank, 1) - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

/// Resident set (VmRSS) of this process right now, in MB.
double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// --- Host speed ----------------------------------------------------------------
//
// The engine's simulated disk lives in memory, so every page I/O is a 4 KB
// copy and the workloads run at the speed of the host's memory system, which
// on a shared host drifts by tens of percent within minutes. bench_ocb
// samples the host with a fixed kernel that runs no engine code, in short
// pauses spread over the measured window with every client parked, and
// scales the end-to-end timings to kReferenceCopyGbps: throughput by
// reference / measured, times by measured / reference. The median sample is
// reported as host.copy_gbps, so raw values are recoverable; per-layer
// timings stay raw. ocbbench/README.md gives the measurements behind this.

constexpr double kReferenceCopyGbps = 40.0;
constexpr double kCalibrationSeconds = 0.2;
/// The measured window is cut into slices of this length, each followed by
/// one calibration sample.
constexpr double kSliceSeconds = 2.0;

/// GB/s that kClients threads copy in random 4 KB blocks, each within its
/// own 16 MB buffer, measured over \p seconds.
double CopyGbps(double seconds) {
  constexpr size_t kBlock = 4096;
  constexpr size_t kBlocks = 4096;
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> copied{0};
  Clock::duration elapsed{};
  {
    std::vector<std::jthread> threads;
    for (uint32_t t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        // Mapped, not allocated: the allocator would keep a freed buffer
        // resident and inflate the process's RSS samples.
        void* mem = mmap(nullptr, kBlock * kBlocks, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        if (mem == MAP_FAILED) return;
        uint8_t* buf = static_cast<uint8_t*>(mem);
        LewisPayneRng rng(t + 1);
        uint64_t blocks = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int i = 0; i < 64; ++i, ++blocks) {
            const uint64_t r = rng.NextUint64();
            std::memcpy(&buf[(r % kBlocks) * kBlock],
                        &buf[((r >> 32) % kBlocks) * kBlock], kBlock);
          }
        }
        // Reading the buffer keeps the copies observable.
        copied.fetch_add(blocks * kBlock + (buf[blocks % kBlocks] & 1),
                         std::memory_order_relaxed);
        munmap(mem, kBlock * kBlocks);
      });
    }
    // Time only the copying, not the buffers' set-up.
    while (ready.load() < kClients) std::this_thread::yield();
    const auto start = Clock::now();
    go.store(true);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true, std::memory_order_relaxed);
    elapsed = Clock::now() - start;
  }  // Joins the threads.
  return static_cast<double>(copied.load()) / Seconds(elapsed) / 1e9;
}

// --- Workloads ---------------------------------------------------------------

enum class Kind { kSteady, kCluster };

/// One workload. The transaction mix is PSET, PSIMPLE, PHIER, PSTOCH,
/// PUPDATE, PINSERT, PDELETE; every traversal runs at the paper's default
/// depths 3/3/5/50 from a uniformly drawn root.
struct Workload {
  const char* name;
  Kind kind;
  uint32_t shards;       ///< 1 = Database, more = ShardedDatabase.
  bool wal;              ///< Real redo WAL, one checkpoint at set-up.
  bool snapshot_reads;   ///< Read-only types run as MVCC snapshot readers.
  size_t pool_pages;     ///< Buffer-pool frames (total across shards).
  std::array<double, 7> mix;
};

constexpr std::array<double, 7> kTable2Mix = {0.25, 0.25, 0.25, 0.25,
                                              0.0,  0.0,  0.0};
constexpr std::array<double, 7> kGenericMix = {0.15, 0.15, 0.10, 0.10,
                                               0.30, 0.12, 0.08};

// Why these four: ocb-read loads storage and Traverse alone (a 1 MB pool
// under an 11 MB base); ocb-rw-2pl loads the lock manager, commit pipeline
// and WAL with the base in memory; ocb-rw-sharded is the only workload
// that runs 2PC; ocb-cluster is the paper's before/after experiment and the
// only one that runs src/clustering.
constexpr Workload kWorkloads[] = {
    {"ocb-read", Kind::kSteady, 1, false, true, 256, kTable2Mix},
    {"ocb-rw-2pl", Kind::kSteady, 1, true, false, 4096, kGenericMix},
    {"ocb-rw-sharded", Kind::kSteady, 4, true, true, 4096, kGenericMix},
    {"ocb-cluster", Kind::kCluster, 1, false, true, 512, kTable2Mix},
};

bool Writes(const Workload& w) {
  return w.mix[4] + w.mix[5] + w.mix[6] > 0.0;
}

/// The paper's default base size (NO); pools are sized against it.
constexpr uint64_t kObjects = 20000;

/// Seed of the one OCB schema every run uses.
constexpr uint64_t kSchemaSeed = 1998;

/// Paper Table 1 defaults with the schema fixed a priori: the classes and
/// reference slots GenerateDatabase draws from kSchemaSeed (Fig. 2 steps 1
/// and 2), handed back through fixed_tref/fixed_cref. \p seed then draws
/// only the objects and their references. With NC = 20 a freshly drawn
/// schema changes traversal sizes so much that every seed would be a
/// different workload.
Result<DatabaseParameters> BaseParameters(uint64_t objects, uint64_t seed) {
  DatabaseParameters schema_params;
  schema_params.seed = kSchemaSeed;
  schema_params.num_objects = 1;
  StorageOptions storage;
  storage.buffer_pool_pages = 16;
  Database schema_db(storage);
  OCB_RETURN_NOT_OK(GenerateDatabase(schema_params, &schema_db).status());

  DatabaseParameters params;
  params.num_objects = objects;
  params.seed = seed;
  for (ClassId c = 0; c < params.num_classes; ++c) {
    const ClassDescriptor& cls = schema_db.schema().GetClass(c);
    params.fixed_tref.emplace_back(cls.tref.begin(), cls.tref.end());
    std::vector<int64_t> cref;
    for (ClassId target : cls.cref) {
      cref.push_back(target == kNullClass ? -1 : static_cast<int64_t>(target));
    }
    params.fixed_cref.push_back(std::move(cref));
  }
  return params;
}

/// Pool frames for a base of \p objects: the workload's pool scaled with the
/// base, so a smaller base keeps the same pool-to-base ratio.
StorageOptions Storage(const Workload& w, uint64_t objects) {
  StorageOptions storage;
  storage.buffer_pool_pages =
      std::max<size_t>(16, w.pool_pages * objects / kObjects);
  return storage;
}

WorkloadParameters MixParameters(const Workload& w) {
  WorkloadParameters p;
  p.p_set = w.mix[0];
  p.p_simple = w.mix[1];
  p.p_hierarchy = w.mix[2];
  p.p_stochastic = w.mix[3];
  p.p_update = w.mix[4];
  p.p_insert = w.mix[5];
  p.p_delete = w.mix[6];
  p.mvcc_snapshot_reads = w.snapshot_reads;
  return p;
}

// --- Metrics -------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Per-type median latency metrics, indexed by TransactionType.
constexpr const char* kTypeLatencyMetric[] = {
    "ocb.set_p50_ms",    "ocb.simple_p50_ms", "ocb.hierarchy_p50_ms",
    "ocb.stochastic_p50_ms", "ocb.update_p50_ms", "ocb.insert_p50_ms",
    "ocb.delete_p50_ms"};

// Every metric bench_ocb can report. Metrics that do not apply to a
// workload (2PC outside ocb-rw-sharded, clustering outside ocb-cluster,
// span self time in an untraced run) read 0.
//
// Latency is reported as p90 and p99, not as a median: the paper's read
// mix puts exactly half the transactions in a ~20 us mode (hierarchy,
// stochastic) and half in a ~3 ms mode (set, simple), so the overall
// median falls in the gap and jumps between the modes from seed to seed.
// Medians are reported per transaction type instead.
constexpr MetricDef kMetrics[] = {
    {"throughput_tps", "txn/s"},
    {"latency_p90_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"host.copy_gbps", "GB/s"},
    {kTypeLatencyMetric[0], "ms"},
    {kTypeLatencyMetric[1], "ms"},
    {kTypeLatencyMetric[2], "ms"},
    {kTypeLatencyMetric[3], "ms"},
    {kTypeLatencyMetric[4], "ms"},
    {kTypeLatencyMetric[5], "ms"},
    {kTypeLatencyMetric[6], "ms"},
    {"ocb.generate_s", "s"},
    {"ocb.objects_per_txn", "objects/txn"},
    {"ocb.self_ms_per_txn", "ms"},
    {"ocb.overattributed_txns", "count"},
    {"ocb.aborted_frac", "fraction"},
    {"ocb.ios_per_txn", "reads/txn"},
    {"ocb.sim_response_ms", "ms"},
    {"oodb.checkpoint_s", "s"},
    {"oodb.cold_restart_s", "s"},
    {"engine.commit_ms_p50", "ms"},
    {"engine.commit_ms_p99", "ms"},
    {"concurrency.lock_waits_per_txn", "count"},
    {"concurrency.lock_wait_ms_per_txn", "ms"},
    {"concurrency.lock_wait_ms_p99", "ms"},
    {"concurrency.deadlocks_per_ktxn", "count"},
    {"concurrency.lock_timeouts", "count"},
    {"concurrency.commits_per_batch", "count"},
    {"concurrency.commit_section_us_per_batch", "us"},
    {"concurrency.versions_published_per_txn", "count"},
    {"concurrency.live_versions_end", "count"},
    {"concurrency.snapshot_reads_per_txn", "count"},
    {"storage.hit_ratio", "fraction"},
    {"storage.misses_per_txn", "count"},
    {"storage.reads_per_txn", "count"},
    {"storage.writes_per_txn", "count"},
    {"storage.page_latch_wait_ms_per_txn", "ms"},
    {"storage.bytes_per_user_byte", "ratio"},
    {"wal.forces_per_commit", "count"},
    {"wal.appends_per_commit", "count"},
    {"wal.bytes_per_commit", "bytes"},
    {"wal.force_us_p50", "us"},
    {"wal.force_us_p99", "us"},
    {"wal.replay_us_per_record", "us"},
    {"sharding.cross_shard_frac", "fraction"},
    {"sharding.twopc_ms_per_txn", "ms"},
    {"sharding.twopc_ms_p99", "ms"},
    {"clustering.reorg_s", "s"},
    {"clustering.overhead_ios", "count"},
    {"clustering.objects_moved", "count"},
    {"clustering.ios_before", "reads/txn"},
    {"clustering.gain", "ratio"},
};

struct Report {
  std::map<std::string, double> values;
  /// Correctness checks: name -> violations (0 = passed).
  std::map<std::string, uint64_t> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Check(const std::string& name, uint64_t violations) {
    checks[name] += violations;
  }
  bool correct() const {
    for (const auto& [name, violations] : checks) {
      if (violations != 0) return false;
    }
    return !checks.empty();
  }
};

// --- Trace -------------------------------------------------------------------

/// One span. Execute spans also carry the client, its sequence number, the
/// transaction type, and the child time the TransactionResult attributes.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  int32_t client = -1;
  uint64_t seq = 0;
  int32_t type = -1;
  uint64_t lock_wait_ns = 0;
  uint64_t page_latch_ns = 0;
  uint64_t facade_ns = 0;
  uint64_t commit_ns = 0;  ///< Commit() time outside 2PC.
  uint64_t twopc_ns = 0;

  uint64_t child_ns() const {
    return lock_wait_ns + page_latch_ns + facade_ns + commit_ns + twopc_ns;
  }
};

/// The spans of one thread, kept in memory until the run ends.
class SpanLog {
 public:
  SpanLog(bool on, Clock::time_point origin, uint32_t tid)
      : on_(on), origin_(origin), tid_(tid) {}

  bool on() const { return on_; }
  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

  void Record(Span span) {
    if (on_) spans_.push_back(span);
  }
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    Span span;
    span.name = name;
    span.start_ns = Nanos(start - origin_);
    span.dur_ns = Nanos(end - start);
    Record(span);
  }
  uint64_t Offset(Clock::time_point t) const { return Nanos(t - origin_); }

 private:
  bool on_;
  Clock::time_point origin_;
  uint32_t tid_;
  std::vector<Span> spans_;
};

/// Owns every thread's SpanLog and writes them as Chrome trace JSON.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  SpanLog* NewLog() {
    logs_.emplace_back(on_, origin_, static_cast<uint32_t>(logs_.size()));
    return &logs_.back();
  }

  Status Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IOError("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const SpanLog& log : logs_) {
      for (const Span& s : log.spans()) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                     first ? "" : ",", s.name, log.tid(), s.start_ns / 1e3,
                     s.dur_ns / 1e3);
        first = false;
        if (s.client >= 0) {
          std::fprintf(
              f,
              ",\"args\":{\"client\":%d,\"seq\":%llu,\"type\":\"%s\","
              "\"lock_wait_ns\":%llu,\"page_latch_wait_ns\":%llu,"
              "\"facade_wait_ns\":%llu,\"commit_ns\":%llu,"
              "\"twopc_ns\":%llu}",
              s.client, static_cast<unsigned long long>(s.seq),
              TransactionTypeToString(static_cast<TransactionType>(s.type)),
              static_cast<unsigned long long>(s.lock_wait_ns),
              static_cast<unsigned long long>(s.page_latch_ns),
              static_cast<unsigned long long>(s.facade_ns),
              static_cast<unsigned long long>(s.commit_ns),
              static_cast<unsigned long long>(s.twopc_ns));
        }
        std::fprintf(f, "}");
      }
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) return Status::IOError("cannot write " + path);
    return Status::OK();
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::deque<SpanLog> logs_;  // Stable addresses for the client threads.
};

/// Runs \p f (returning Status), records a span named \p name and stores
/// its wall time in \p seconds.
template <typename F>
Status Timed(SpanLog* log, const char* name, double* seconds, F&& f) {
  const auto start = Clock::now();
  Status st = f();
  const auto end = Clock::now();
  *seconds = Seconds(end - start);
  log->Record(name, start, end);
  return st;
}

// --- Engines -------------------------------------------------------------------

template <typename DB>
struct EngineOps;

template <>
struct EngineOps<Database> {
  static constexpr const char* kCheckpoint = "SaveSnapshot";
  static constexpr const char* kRecover = "RecoverDatabase";
  static std::unique_ptr<Database> Make(const StorageOptions& o, uint32_t) {
    return std::make_unique<Database>(o);
  }
  static Status Checkpoint(Database* db, const std::string& path) {
    return SaveSnapshot(db, path);
  }
  static Status Recover(Database* db) { return wal::RecoverDatabase(db); }
};

template <>
struct EngineOps<ShardedDatabase> {
  static constexpr const char* kCheckpoint = "SaveShardedSnapshot";
  static constexpr const char* kRecover = "RecoverShardedDatabase";
  static std::unique_ptr<ShardedDatabase> Make(const StorageOptions& o,
                                               uint32_t shards) {
    return std::make_unique<ShardedDatabase>(o, shards);
  }
  static Status Checkpoint(ShardedDatabase* db, const std::string& path) {
    return SaveShardedSnapshot(db, path);
  }
  static Status Recover(ShardedDatabase* db) {
    return wal::RecoverShardedDatabase(db);
  }
};

/// Every set-up of a run; reported as medians.
struct SetupSeries {
  std::vector<double> total, generate, checkpoint, cold_restart;

  void Fill(Report* rep) const {
    rep->values["setup_s"] = Median(total);
    rep->values["ocb.generate_s"] = Median(generate);
    rep->values["oodb.checkpoint_s"] = Median(checkpoint);
    rep->values["oodb.cold_restart_s"] = Median(cold_restart);
  }
};

/// Builds a fresh engine, generates the OCB base into it, checkpoints it to
/// \p checkpoint (skipped when empty) and empties the cache; adds the
/// times to \p series.
template <typename DB>
Result<std::unique_ptr<DB>> SetUp(const StorageOptions& storage,
                                  uint32_t shards,
                                  const DatabaseParameters& params,
                                  const std::string& checkpoint, SpanLog* log,
                                  SetupSeries* series) {
  const auto start = Clock::now();
  std::unique_ptr<DB> db = EngineOps<DB>::Make(storage, shards);
  OCB_RETURN_NOT_OK(db->wal_open_status());
  double generate_s = 0.0, checkpoint_s = 0.0, cold_restart_s = 0.0;
  OCB_RETURN_NOT_OK(Timed(log, "GenerateDatabase", &generate_s, [&] {
    return GenerateDatabase(params, db.get()).status();
  }));
  if (!checkpoint.empty()) {
    OCB_RETURN_NOT_OK(
        Timed(log, EngineOps<DB>::kCheckpoint, &checkpoint_s,
              [&] { return EngineOps<DB>::Checkpoint(db.get(), checkpoint); }));
  }
  OCB_RETURN_NOT_OK(Timed(log, "ColdRestart", &cold_restart_s,
                          [&] { return db->ColdRestart(); }));
  series->total.push_back(Seconds(Clock::now() - start));
  series->generate.push_back(generate_s);
  series->checkpoint.push_back(checkpoint_s);
  series->cold_restart.push_back(cold_restart_s);
  return db;
}

/// Throughput and latency of every measured slice (every protocol
/// repetition for ocb-cluster); reported as medians, so that one slice the
/// host slowed cannot carry the run's tail.
struct SliceSeries {
  std::vector<double> tps, p90_ms, p99_ms;

  /// \p latency_ns: latencies of the slice's committed transactions
  /// (sorted here).
  void Add(double seconds, uint64_t committed,
           std::vector<uint64_t>* latency_ns) {
    tps.push_back(Ratio(static_cast<double>(committed), seconds));
    p90_ms.push_back(Percentile(latency_ns, 0.90) / 1e6);
    p99_ms.push_back(Percentile(latency_ns, 0.99) / 1e6);
  }
  void Fill(Report* rep) const {
    rep->values["throughput_tps"] = Median(tps);
    rep->values["latency_p90_ms"] = Median(p90_ms);
    rep->values["latency_p99_ms"] = Median(p99_ms);
  }
};

/// Host speed and memory, sampled while the engine is idle (see "Host
/// speed" above).
struct HostSamples {
  std::vector<double> copy_gbps;
  double peak_rss_mb = 0.0;

  void NoteRss() { peak_rss_mb = std::max(peak_rss_mb, RssMb()); }
  void Calibrate() { copy_gbps.push_back(CopyGbps(kCalibrationSeconds)); }

  /// Records the samples and scales the end-to-end timings to the
  /// reference host speed.
  void Apply(Report* rep) const {
    auto& v = rep->values;
    const double gbps = Median(copy_gbps);
    const double speed = gbps > 0.0 ? gbps / kReferenceCopyGbps : 1.0;
    v["host.copy_gbps"] = gbps;
    v["throughput_tps"] /= speed;
    v["latency_p90_ms"] *= speed;
    v["latency_p99_ms"] *= speed;
    v["setup_s"] *= speed;
    v["peak_rss_mb"] = peak_rss_mb;
  }
};

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

/// Bytes in every WAL file (shard logs, coordinator log, segments) in \p dir.
uint64_t WalBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("wal", 0) == 0) {
      total += entry.file_size(ec);
    }
  }
  return total;
}

// --- Correctness -------------------------------------------------------------

struct PairHash {
  size_t operator()(const std::pair<Oid, Oid>& p) const {
    return std::hash<Oid>()(p.first * 0x9E3779B97F4A7C15ULL ^ p.second);
  }
};

/// A digest of the whole object graph plus, optionally, its referential
/// integrity.
struct GraphState {
  uint64_t digest = 0;
  uint64_t objects = 0;
  uint64_t encoded_bytes = 0;
  uint64_t integrity_violations = 0;
};

/// Reads every live object silently. The digest covers oid, class, orefs,
/// sorted backrefs and filler size in ascending oid order. The integrity
/// check requires every non-null oref to target a live object whose
/// backrefs list the source, and every backref to be matched by an oref
/// (as multisets: one source may link one target twice).
template <typename DB>
Result<GraphState> ReadGraph(DB* db, bool check_integrity) {
  std::vector<Oid> oids = db->LiveOidsSnapshot();
  std::sort(oids.begin(), oids.end());
  const std::unordered_set<Oid> live(oids.begin(), oids.end());
  std::unordered_map<std::pair<Oid, Oid>, int64_t, PairHash> balance;
  GraphState g;
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a.
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (Oid oid : oids) {
    OCB_ASSIGN_OR_RETURN(Object obj, db->PeekObject(oid));
    ++g.objects;
    g.encoded_bytes += obj.EncodedSize();
    std::sort(obj.backrefs.begin(), obj.backrefs.end());
    mix(oid);
    mix(obj.class_id);
    mix(obj.orefs.size());
    for (Oid t : obj.orefs) mix(t);
    mix(obj.backrefs.size());
    for (Oid s : obj.backrefs) mix(s);
    mix(obj.filler_size);
    if (!check_integrity) continue;
    for (Oid t : obj.orefs) {
      if (t == kInvalidOid) continue;
      if (live.count(t) == 0) {
        ++g.integrity_violations;
      } else {
        ++balance[{oid, t}];
      }
    }
    for (Oid s : obj.backrefs) --balance[{s, oid}];
  }
  for (const auto& [link, count] : balance) {
    if (count != 0) ++g.integrity_violations;
  }
  g.digest = h;
  return g;
}

double BytesPerUserByte(const ObjectStoreStats& store, size_t page_size,
                        const GraphState& g) {
  return Ratio(static_cast<double>(
                   store.data_pages.load(std::memory_order_relaxed) *
                   page_size),
               static_cast<double>(g.encoded_bytes));
}

// --- Steady-state workloads --------------------------------------------------

enum Phase : int { kWarmup, kMeasure, kPause, kStop };

/// The clients' phase. In kPause every client parks between transactions,
/// so the engine is idle while the host is calibrated or sampled.
class Gate {
 public:
  /// Called by a client before each transaction: parks while paused and
  /// returns the phase the transaction runs in.
  Phase Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    if (phase_ == kPause) {
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return phase_ != kPause; });
      --parked_;
    }
    return phase_;
  }

  void Set(Phase phase) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      phase_ = phase;
    }
    cv_.notify_all();
  }

  /// Pauses the clients; returns once all \p clients are parked.
  void Pause(uint32_t clients) {
    std::unique_lock<std::mutex> lock(mu_);
    phase_ = kPause;
    cv_.wait(lock, [&] { return parked_ == clients; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  Phase phase_ = kWarmup;
  uint32_t parked_ = 0;
};

/// What one client measured inside the window.
struct ClientStats {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t failed = 0;
  uint64_t executions = 0;
  uint64_t aborted = 0;
  uint64_t objects = 0;
  uint64_t writer_commits = 0;
  uint64_t cross_shard = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t page_latch_ns = 0;
  uint64_t twopc_ns = 0;
  uint64_t snapshot_reads = 0;
  uint64_t self_ns = 0;
  uint64_t overattributed = 0;
  /// Per committed transaction, by TransactionType.
  std::array<std::vector<uint64_t>, kNumTransactionTypes> latency_ns;
  /// The current slice's committed latencies; the main thread takes them
  /// while the client is parked.
  std::vector<uint64_t> slice_latency_ns;
  std::vector<uint64_t> commit_ns;     ///< Per committed Commit() call.
  std::vector<uint64_t> lock_wait_samples_ns;  ///< Per execution.
  std::vector<uint64_t> twopc_samples_ns;      ///< Per execution with 2PC.
  std::string error;

  void Merge(const ClientStats& o) {
    attempted += o.attempted;
    committed += o.committed;
    failed += o.failed;
    executions += o.executions;
    aborted += o.aborted;
    objects += o.objects;
    writer_commits += o.writer_commits;
    cross_shard += o.cross_shard;
    lock_wait_ns += o.lock_wait_ns;
    page_latch_ns += o.page_latch_ns;
    twopc_ns += o.twopc_ns;
    snapshot_reads += o.snapshot_reads;
    self_ns += o.self_ns;
    overattributed += o.overattributed;
    auto append = [](std::vector<uint64_t>* to,
                     const std::vector<uint64_t>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    for (int t = 0; t < kNumTransactionTypes; ++t) {
      append(&latency_ns[t], o.latency_ns[t]);
    }
    append(&commit_ns, o.commit_ns);
    append(&lock_wait_samples_ns, o.lock_wait_samples_ns);
    append(&twopc_samples_ns, o.twopc_samples_ns);
    if (error.empty()) error = o.error;
  }
};

/// One Execute call of a transaction.
struct Attempt {
  TransactionResult result;
  Clock::time_point start;
  Clock::time_point end;
};

/// Folds one execution into \p out and, when tracing, logs its span.
void RecordAttempt(const Attempt& a, uint32_t client, uint64_t seq,
                   SpanLog* log, ClientStats* out) {
  const TransactionResult& r = a.result;
  ++out->executions;
  out->lock_wait_ns += r.lock_wait_nanos;
  out->page_latch_ns += r.page_latch_wait_nanos;
  out->twopc_ns += r.twopc_nanos;
  out->snapshot_reads += r.snapshot_reads;
  out->lock_wait_samples_ns.push_back(r.lock_wait_nanos);
  if (r.twopc_nanos > 0) out->twopc_samples_ns.push_back(r.twopc_nanos);
  if (r.aborted) {
    ++out->aborted;
  } else {
    out->objects += r.objects_accessed;
    if (r.commit_nanos > 0) out->commit_ns.push_back(r.commit_nanos);
    if (r.cross_shard) ++out->cross_shard;
    if (!IsReadOnlyTransactionType(r.type)) ++out->writer_commits;
  }
  if (!log->on()) return;
  Span s;
  s.name = "Execute";
  s.start_ns = log->Offset(a.start);
  s.dur_ns = Nanos(a.end - a.start);
  s.client = static_cast<int32_t>(client);
  s.seq = seq;
  s.type = static_cast<int32_t>(r.type);
  s.lock_wait_ns = r.lock_wait_nanos;
  s.page_latch_ns = r.page_latch_wait_nanos;
  s.facade_ns = r.facade_wait_nanos;
  // 2PC runs inside Commit(): attribute it once, as its own child.
  s.twopc_ns = r.twopc_nanos;
  s.commit_ns = r.commit_nanos - std::min(r.commit_nanos, r.twopc_nanos);
  if (s.child_ns() > s.dur_ns) {
    ++out->overattributed;
  } else {
    out->self_ns += s.dur_ns - s.child_ns();
  }
  log->Record(s);
}

/// One closed-loop client: draws a type and a uniform root from its own
/// live-oid pool (repaired after deletes, as ProtocolRunnerT does), runs
/// the transaction until it commits, and counts it when it started inside
/// the measured window (a pause waits for it to finish).
template <typename DB>
void ClientLoop(DB* db, const WorkloadParameters& params, uint32_t client,
                Gate* gate, SpanLog* log, ClientStats* out) {
  TransactionExecutorT<DB> executor(db, params);
  executor.set_transactional(true);
  LewisPayneRng rng(params.seed + 0x9E3779B9ULL * (client + 1));
  std::vector<Oid> pool = db->LiveOidsSnapshot();
  auto repair = [&](size_t index) {
    const std::vector<Oid> live = db->LiveOidsSnapshot();
    if (live.empty()) return;
    pool[index] = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
  };
  std::vector<Attempt> attempts;
  uint64_t seq = 0;
  for (Phase phase = gate->Enter(); phase != kStop; phase = gate->Enter()) {
    const TransactionType type = executor.DrawType(&rng);
    const size_t index = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1));
    if (!db->ContainsObject(pool[index])) repair(index);
    const Oid root = pool[index];

    enum { kCommitted, kSkipped, kFailed } outcome = kFailed;
    Status error;
    attempts.clear();
    const auto begin = Clock::now();
    for (uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      Attempt a;
      a.start = Clock::now();
      auto result = executor.Execute(type, root, /*reversed=*/false, &rng);
      a.end = Clock::now();
      if (!result.ok()) {
        if (result.status().IsNotFound()) {
          // The root died under a concurrent delete: repair, not counted.
          repair(index);
          outcome = kSkipped;
        } else {
          error = result.status();
        }
        break;
      }
      a.result = *result;
      attempts.push_back(a);
      if (!a.result.aborted) {
        outcome = kCommitted;
        if (type == TransactionType::kDelete) repair(index);
        break;
      }
      // Randomized exponential backoff, so a large locking reader is not
      // chosen as the victim of the same conflict again and again.
      const int64_t max_us = int64_t{kBackoffUnitUs} << std::min(attempt, 10u);
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.UniformInt(0, max_us)));
    }
    const auto end = Clock::now();
    if (phase != kMeasure) continue;
    for (const Attempt& a : attempts) RecordAttempt(a, client, seq++, log, out);
    if (outcome == kSkipped) continue;
    ++out->attempted;
    if (outcome == kCommitted) {
      ++out->committed;
      out->latency_ns[static_cast<size_t>(type)].push_back(
          Nanos(end - begin));
      out->slice_latency_ns.push_back(Nanos(end - begin));
    } else {
      ++out->failed;
      if (out->error.empty()) {
        out->error = error.ok() ? "retries exhausted" : error.ToString();
      }
    }
  }
}

/// Engine counters read at the window's edges.
struct EngineSample {
  uint64_t sim_ns = 0;
  uint64_t txn_reads = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  GroupCommitStats group;
  obs::MetricsSnapshot registry;
  uint64_t wal_bytes = 0;
};

template <typename DB>
EngineSample Sample(DB* db, const std::string& dir) {
  EngineSample s;
  s.sim_ns = db->SimNowNanos();
  s.txn_reads = db->IoCountersFor(IoScope::kTransaction)
                    .reads.load(std::memory_order_relaxed);
  const BufferPoolStats pool = db->PoolStats();
  s.pool_hits = pool.hits.load(std::memory_order_relaxed);
  s.pool_misses = pool.misses.load(std::memory_order_relaxed);
  s.group = db->group_commit_stats();
  s.registry = obs::MetricsRegistry::Global().Snapshot();
  s.wal_bytes = WalBytes(dir);
  return s;
}

template <typename DB>
Status RunSteady(const Workload& w, uint64_t seed, double seconds,
                 uint64_t objects, const std::string& dir, Tracer* tracer,
                 HostSamples* host, Report* rep) {
  SpanLog* main_log = tracer->NewLog();
  OCB_ASSIGN_OR_RETURN(const DatabaseParameters db_params,
                       BaseParameters(objects, seed));
  WorkloadParameters params = MixParameters(w);
  params.seed = seed + 1;
  params.client_count = kClients;
  params.transactional = true;
  StorageOptions storage = Storage(w, objects);
  if (w.wal) storage.wal_path = dir + "/wal";
  const std::string checkpoint = w.wal ? dir + "/checkpoint" : "";

  std::unique_ptr<DB> db;
  SetupSeries setups;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    OCB_RETURN_NOT_OK(ResetDir(dir));
    OCB_ASSIGN_OR_RETURN(db, SetUp<DB>(storage, w.shards, db_params,
                                       checkpoint, main_log, &setups));
    host->NoteRss();
  }
  setups.Fill(rep);
  auto& v = rep->values;

  GraphState before;
  if (!Writes(w)) {
    OCB_ASSIGN_OR_RETURN(before, ReadGraph(db.get(), false));
  }

  const EngineSample at_setup = Sample(db.get(), dir);
  EngineSample first, last;
  SliceSeries slices;
  Gate gate;
  std::vector<ClientStats> stats(kClients);
  {
    ScopedEngineIoScope<DB> scope(db.get(), IoScope::kTransaction);
    std::vector<std::jthread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop<DB>, db.get(), std::cref(params), c,
                           &gate, tracer->NewLog(), &stats[c]);
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(kWarmupShare * seconds, 0.5, 2.0)));
    gate.Pause(kClients);
    first = Sample(db.get(), dir);
    const int n = static_cast<int>(std::ceil(seconds / kSliceSeconds));
    for (int i = 0; i < n; ++i) {
      const auto start = Clock::now();
      gate.Set(kMeasure);
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / n));
      gate.Pause(kClients);
      std::vector<uint64_t> latency_ns;
      for (ClientStats& s : stats) {
        latency_ns.insert(latency_ns.end(), s.slice_latency_ns.begin(),
                          s.slice_latency_ns.end());
        s.slice_latency_ns.clear();
      }
      slices.Add(Seconds(Clock::now() - start), latency_ns.size(),
                 &latency_ns);
      host->NoteRss();
      host->Calibrate();
    }
    last = Sample(db.get(), dir);
    gate.Set(kStop);
  }  // Joins the clients.

  ClientStats all;
  for (const ClientStats& s : stats) all.Merge(s);
  if (!all.error.empty()) {
    std::fprintf(stderr, "bench_ocb: first failure: %s\n", all.error.c_str());
  }
  rep->attempted += all.attempted;
  rep->failed += all.failed;
  rep->Check("transactions_committed", all.committed == 0 ? 1 : 0);

  const double txns = static_cast<double>(all.attempted);
  const double execs = static_cast<double>(all.executions);
  const double writers = static_cast<double>(all.writer_commits);
  const obs::MetricsSnapshot delta = last.registry.Diff(first.registry);
  auto gauge = [&](const char* name) {
    return static_cast<double>(last.registry.Value(name) -
                               first.registry.Value(name));
  };
  const obs::HistogramStats force = delta.Histo("wal.force");
  const double batches =
      static_cast<double>(last.group.batches - first.group.batches);
  const double hits = static_cast<double>(last.pool_hits - first.pool_hits);
  const double misses =
      static_cast<double>(last.pool_misses - first.pool_misses);

  slices.Fill(rep);
  for (size_t t = 0; t < std::size(kTypeLatencyMetric); ++t) {
    v[kTypeLatencyMetric[t]] = Percentile(&all.latency_ns[t], 0.50) / 1e6;
  }
  v["ocb.objects_per_txn"] =
      Ratio(static_cast<double>(all.objects), static_cast<double>(all.committed));
  v["ocb.self_ms_per_txn"] =
      Ratio(static_cast<double>(all.self_ns) / 1e6,
            static_cast<double>(all.executions - all.overattributed));
  v["ocb.overattributed_txns"] = static_cast<double>(all.overattributed);
  v["ocb.aborted_frac"] = Ratio(static_cast<double>(all.aborted), execs);
  v["ocb.ios_per_txn"] =
      Ratio(static_cast<double>(last.txn_reads - first.txn_reads), txns);
  v["ocb.sim_response_ms"] =
      Ratio(static_cast<double>(last.sim_ns - first.sim_ns) / 1e6, txns);
  v["engine.commit_ms_p50"] = Percentile(&all.commit_ns, 0.50) / 1e6;
  v["engine.commit_ms_p99"] = Percentile(&all.commit_ns, 0.99) / 1e6;
  v["concurrency.lock_waits_per_txn"] = Ratio(gauge("db.lock.waits"), txns);
  v["concurrency.lock_wait_ms_per_txn"] =
      Ratio(static_cast<double>(all.lock_wait_ns) / 1e6, txns);
  v["concurrency.lock_wait_ms_p99"] =
      Percentile(&all.lock_wait_samples_ns, 0.99) / 1e6;
  v["concurrency.deadlocks_per_ktxn"] =
      Ratio(1000.0 * gauge("db.lock.deadlocks"), txns);
  v["concurrency.lock_timeouts"] = gauge("db.lock.timeouts");
  v["concurrency.commits_per_batch"] = Ratio(
      static_cast<double>(last.group.commits - first.group.commits), batches);
  v["concurrency.commit_section_us_per_batch"] = Ratio(
      static_cast<double>(last.group.batch_nanos - first.group.batch_nanos) /
          1e3,
      batches);
  v["concurrency.versions_published_per_txn"] =
      Ratio(gauge("db.mvcc.versions_published"), txns);
  v["concurrency.live_versions_end"] =
      static_cast<double>(last.registry.Value("db.mvcc.live_versions"));
  v["concurrency.snapshot_reads_per_txn"] =
      Ratio(static_cast<double>(all.snapshot_reads), txns);
  v["storage.hit_ratio"] = Ratio(hits, hits + misses);
  v["storage.misses_per_txn"] = Ratio(misses, txns);
  v["storage.reads_per_txn"] = Ratio(gauge("db.disk.reads"), txns);
  v["storage.writes_per_txn"] = Ratio(gauge("db.disk.writes"), txns);
  v["storage.page_latch_wait_ms_per_txn"] =
      Ratio(static_cast<double>(all.page_latch_ns) / 1e6, txns);
  v["wal.forces_per_commit"] = Ratio(static_cast<double>(force.count), writers);
  v["wal.appends_per_commit"] =
      Ratio(static_cast<double>(delta.Histo("wal.append").count), writers);
  v["wal.bytes_per_commit"] =
      Ratio(static_cast<double>(last.wal_bytes - first.wal_bytes), writers);
  v["wal.force_us_p50"] = static_cast<double>(force.p50) / 1e3;
  v["wal.force_us_p99"] = static_cast<double>(force.p99) / 1e3;
  v["sharding.cross_shard_frac"] = Ratio(static_cast<double>(all.cross_shard),
                                         static_cast<double>(all.committed));
  v["sharding.twopc_ms_per_txn"] =
      Ratio(static_cast<double>(all.twopc_ns) / 1e6, txns);
  v["sharding.twopc_ms_p99"] = Percentile(&all.twopc_samples_ns, 0.99) / 1e6;

  const size_t page_size = db->options().page_size;
  if (!Writes(w)) {
    OCB_ASSIGN_OR_RETURN(GraphState after, ReadGraph(db.get(), false));
    rep->Check("read_digest_unchanged",
               after.digest != before.digest || after.objects != before.objects
                   ? 1
                   : 0);
    v["storage.bytes_per_user_byte"] =
        BytesPerUserByte(db->StoreStats(), page_size, after);
    return Status::OK();
  }

  // Referential integrity of the final state, then durability: a fresh
  // engine recovered from the set-up checkpoint plus this run's WAL must
  // hold exactly the live final state.
  OCB_ASSIGN_OR_RETURN(GraphState final_state, ReadGraph(db.get(), true));
  rep->Check("referential_integrity", final_state.integrity_violations);
  v["storage.bytes_per_user_byte"] =
      BytesPerUserByte(db->StoreStats(), page_size, final_state);
  const uint64_t records = last.registry.Histo("wal.append").count -
                           at_setup.registry.Histo("wal.append").count;
  Schema schema = db->schema();
  for (ClassId c = 0; c < schema.class_count(); ++c) {
    schema.GetMutableClass(c).iterator.clear();
  }
  db.reset();
  std::unique_ptr<DB> recovered = EngineOps<DB>::Make(storage, w.shards);
  recovered->SetSchema(std::move(schema));
  double replay_s = 0.0;
  OCB_RETURN_NOT_OK(Timed(main_log, EngineOps<DB>::kRecover, &replay_s, [&] {
    return EngineOps<DB>::Recover(recovered.get());
  }));
  OCB_ASSIGN_OR_RETURN(GraphState recovered_state,
                       ReadGraph(recovered.get(), false));
  rep->Check("recovery_matches_live",
             recovered_state.digest != final_state.digest ||
                     recovered_state.objects != final_state.objects
                 ? 1
                 : 0);
  v["wal.replay_us_per_record"] =
      Ratio(replay_s * 1e6, static_cast<double>(records));
  return Status::OK();
}

// --- The clustering experiment -----------------------------------------------

/// DSTC that also times every protocol transaction from the outside: the
/// engine fires OnTransactionBegin/End around each one. Latencies are kept
/// for warm-run transactions only: each run's tail would otherwise be the
/// first transactions after its cold restart, whose types are luck.
class TimedDstc : public Dstc {
 public:
  TimedDstc(const DstcOptions& options, uint64_t cold, uint64_t hot,
            SpanLog* log, std::vector<uint64_t>* warm_latency_ns)
      : Dstc(options),
        cold_(cold),
        run_(cold + hot),
        log_(log),
        warm_latency_ns_(warm_latency_ns) {}

  void OnTransactionBegin() override {
    begin_ = Clock::now();
    Dstc::OnTransactionBegin();
  }
  void OnTransactionEnd() override {
    Dstc::OnTransactionEnd();
    const auto end = Clock::now();
    if (seen_++ % run_ >= cold_) {
      warm_latency_ns_->push_back(Nanos(end - begin_));
    }
    log_->Record("Transaction", begin_, end);
  }

 private:
  const uint64_t cold_;
  const uint64_t run_;  ///< Transactions per measured run (cold + warm).
  SpanLog* log_;
  std::vector<uint64_t>* warm_latency_ns_;
  Clock::time_point begin_;
  uint64_t seen_ = 0;
};

/// Paper Table 5: generate once, then repeat the before/after-reclustering
/// protocol (each repetition on a fresh copy of the generated base, with its
/// own workload seed) until the protocol calls have taken \p seconds.
Status RunCluster(const Workload& w, uint64_t seed, double seconds,
                  uint64_t objects, const std::string& dir, Tracer* tracer,
                  HostSamples* host, Report* rep) {
  // COLDN / HOTN per repetition. The paper's 1,000 / 10,000 take about 20 s
  // here; short repetitions give a run ~14 of them, so the median over
  // repetitions outlasts a host disturbance.
  constexpr uint64_t cold = 100;
  constexpr uint64_t hot = 500;
  SpanLog* log = tracer->NewLog();
  OCB_ASSIGN_OR_RETURN(const DatabaseParameters db_params,
                       BaseParameters(objects, seed));
  const StorageOptions storage = Storage(w, objects);
  const std::string base = dir + "/base.snapshot";

  SetupSeries setups;
  for (int i = 0; i < kSetups; ++i) {
    OCB_RETURN_NOT_OK(ResetDir(dir));
    OCB_ASSIGN_OR_RETURN(
        std::unique_ptr<Database> db,
        SetUp<Database>(storage, 1, db_params, base, log, &setups));
    host->NoteRss();
  }
  setups.Fill(rep);
  auto& v = rep->values;

  WorkloadParameters params = MixParameters(w);
  params.cold_transactions = cold;
  params.hot_transactions = hot;
  DstcOptions dstc_options;
  dstc_options.observation_period_transactions = 500;
  dstc_options.selection_threshold = 1.0;

  SliceSeries slices;
  std::vector<double> ios_before, ios_after, sim_ms, objects_per_txn,
      reorg_s, overhead, moved, hit_ratio, misses, writes;
  double protocol_s = 0.0;
  uint64_t attempted = 0;
  uint64_t committed = 0;
  for (uint64_t r = 0; protocol_s < seconds; ++r) {
    Database db(storage);
    double load_s = 0.0;
    OCB_RETURN_NOT_OK(Timed(log, "LoadSnapshot", &load_s,
                            [&] { return LoadSnapshot(&db, base); }));
    OCB_ASSIGN_OR_RETURN(GraphState before, ReadGraph(&db, false));
    params.seed = seed + 1 + r;
    std::vector<uint64_t> warm_latency_ns;
    TimedDstc dstc(dstc_options, cold, hot, log, &warm_latency_ns);
    const auto call_start = Clock::now();
    auto result = RunBeforeAfterOnDatabase(&db, params, &dstc);
    const auto call_end = Clock::now();
    log->Record("RunBeforeAfterOnDatabase", call_start, call_end);
    if (!result.ok()) return result.status();
    OCB_ASSIGN_OR_RETURN(GraphState after, ReadGraph(&db, false));
    rep->Check("digest_unchanged_by_reorganize",
               after.digest != before.digest || after.objects != before.objects
                   ? 1
                   : 0);

    const BeforeAfterResult& res = *result;
    const double call_s = Seconds(call_end - call_start);
    protocol_s += call_s;
    uint64_t run_committed = 0;
    for (const MultiClientReport* run : {&res.before, &res.after}) {
      run_committed += run->merged.cold.global.transactions +
                       run->merged.warm.global.transactions;
    }
    slices.Add(call_s, run_committed, &warm_latency_ns);
    committed += run_committed;
    attempted += 2 * (cold + hot);
    const PhaseMetrics& warm = res.after.merged.warm;
    const double warm_txns = static_cast<double>(warm.global.transactions);
    ios_before.push_back(res.ios_before());
    ios_after.push_back(res.ios_after());
    sim_ms.push_back(warm.global.response_nanos.mean() / 1e6);
    objects_per_txn.push_back(warm.global.objects_accessed.mean());
    reorg_s.push_back(call_s - (res.before.wall_micros +
                                res.after.wall_micros) / 1e6);
    overhead.push_back(static_cast<double>(res.clustering_overhead_io));
    moved.push_back(static_cast<double>(res.policy_stats.objects_moved));
    hit_ratio.push_back(warm.buffer_hit_ratio());
    misses.push_back(Ratio(static_cast<double>(warm.buffer_misses), warm_txns));
    writes.push_back(
        Ratio(static_cast<double>(warm.transaction_io_writes), warm_txns));
    v["storage.bytes_per_user_byte"] =
        BytesPerUserByte(db.StoreStats(), db.options().page_size, after);
    host->NoteRss();
    host->Calibrate();
  }
  rep->attempted += attempted;
  rep->failed += attempted - committed;
  const double gain = Ratio(Mean(ios_before), Mean(ios_after));
  rep->Check("clustering_gain_above_1", gain > 1.0 ? 0 : 1);

  slices.Fill(rep);
  v["ocb.objects_per_txn"] = Mean(objects_per_txn);
  v["ocb.ios_per_txn"] = Mean(ios_after);
  v["ocb.sim_response_ms"] = Mean(sim_ms);
  v["storage.hit_ratio"] = Mean(hit_ratio);
  v["storage.misses_per_txn"] = Mean(misses);
  v["storage.reads_per_txn"] = Mean(ios_after);
  v["storage.writes_per_txn"] = Mean(writes);
  v["clustering.reorg_s"] = Mean(reorg_s);
  v["clustering.overhead_ios"] = Mean(overhead);
  v["clustering.objects_moved"] = Mean(moved);
  v["clustering.ios_before"] = Mean(ios_before);
  v["clustering.gain"] = gain;
  return Status::OK();
}

// --- Command line and output ---------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1998;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_work/run";
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt->seconds > 0.0) || opt->seconds > 600.0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      opt->trace = value[0] == '1';
    } else if (arg == "--work-dir") {
      opt->work_dir = value;
    } else if (arg == "--trace-file") {
      opt->trace_file = value;
    } else {
      return false;
    }
  }
  return !opt->workload.empty();
}

void PrintResult(const Options& opt, const Report& rep) {
  for (const MetricDef& m : kMetrics) {
    const auto it = rep.values.find(m.name);
    std::printf("%s %s %.6g %s\n", opt.workload.c_str(), m.name,
                it == rep.values.end() ? 0.0 : it->second, m.unit);
  }
  for (const auto& [name, violations] : rep.checks) {
    std::printf("%s check.%s %llu\n", opt.workload.c_str(), name.c_str(),
                static_cast<unsigned long long>(violations));
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"checks\": {",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.trace ? 1 : 0, OCB_BENCH_BUILD_TYPE, OCB_BENCH_COMPILER,
      rep.correct() ? "true" : "false",
      static_cast<unsigned long long>(rep.attempted),
      static_cast<unsigned long long>(rep.failed));
  const char* sep = "";
  for (const auto& [name, violations] : rep.checks) {
    std::printf("%s\"%s\": %llu", sep, name.c_str(),
                static_cast<unsigned long long>(violations));
    sep = ", ";
  }
  std::printf("}, \"metrics\": {");
  sep = "";
  for (const MetricDef& m : kMetrics) {
    const auto it = rep.values.find(m.name);
    double value = it == rep.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name,
                value, m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: bench_ocb --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--work-dir DIR] "
                 "[--trace-file FILE]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_ocb: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  // --smoke: a 2,000-object base, so the whole suite checks itself in
  // seconds.
  const uint64_t objects = opt.smoke ? kObjects / 10 : kObjects;

  Tracer tracer(opt.trace);
  HostSamples host;
  Report rep;
  Status st;
  if (workload->kind == Kind::kCluster) {
    st = RunCluster(*workload, opt.seed, opt.seconds, objects, opt.work_dir,
                    &tracer, &host, &rep);
  } else if (workload->shards > 1) {
    st = RunSteady<ShardedDatabase>(*workload, opt.seed, opt.seconds, objects,
                                    opt.work_dir, &tracer, &host, &rep);
  } else {
    st = RunSteady<Database>(*workload, opt.seed, opt.seconds, objects,
                             opt.work_dir, &tracer, &host, &rep);
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "bench_ocb: %s failed: %s\n", opt.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  host.Apply(&rep);
  if (opt.trace && !opt.trace_file.empty()) {
    st = tracer.Write(opt.trace_file);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_ocb: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  PrintResult(opt, rep);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace ocb

int main(int argc, char** argv) { return ocb::Main(argc, argv); }
