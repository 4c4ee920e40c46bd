/// \file trace.h
/// \brief Lock-free ring-buffer trace recorder emitting Chrome trace-event
///        JSON ("X" complete events) viewable in ui.perfetto.dev.
///
/// Recording model:
///
///   * A fixed ring of TraceEvent slots (default 64Ki, lazily allocated on
///     first Enable). Writers claim a slot with one relaxed fetch_add on
///     the head and fill it field-by-field. Every slot field is a relaxed
///     std::atomic so two writers lapping each other on the same slot
///     (ring wraparound) is a benign race, not a TSan report; a per-slot
///     sequence word written last lets the dumper skip slots that were
///     mid-write.
///
///   * Spans are RAII: TraceSpan stamps the start time on construction
///     and writes one complete event (name, ts, dur, tid, up to two
///     uint64 args) on destruction. Nesting falls out in the viewer
///     because Chrome's JSON format nests same-tid "X" events by
///     [ts, ts+dur] containment — no parent pointers needed.
///
///   * Instant events (TraceInstant) mark a single point in time.
///
///   * Everything is gated on TraceRecorder::enabled(): one relaxed load
///     when tracing is off (the common case), and the whole surface
///     compiles to no-ops under OCB_OBS_DISABLED.
///
/// The recorder keeps the *latest* kRingSize events (older ones are
/// overwritten) — the right default for "trace the interesting window,
/// dump at the end" bench usage. Timestamps are steady_clock nanoseconds
/// rebased to the first Enable() call; Dump() converts to the microsecond
/// ts/dur fields the trace-event format specifies.
///
/// Env wiring: if OCB_TRACE=path is set, InitFromEnvironment() enables
/// the recorder and DumpToEnvPath() (call at process exit / bench end)
/// writes the JSON there.

#ifndef OCB_OBS_TRACE_H_
#define OCB_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "util/sync.h"

namespace ocb {
namespace obs {

/// One ring slot. All fields relaxed-atomic: wraparound races are benign.
struct TraceEvent {
  std::atomic<uint64_t> seq{0};  ///< 0 = never written; odd = in progress.
  std::atomic<const char*> name{nullptr};  ///< Static-storage string.
  std::atomic<char> phase{'X'};            ///< 'X' complete, 'i' instant.
  std::atomic<uint64_t> ts_nanos{0};
  std::atomic<uint64_t> dur_nanos{0};
  std::atomic<uint32_t> tid{0};
  std::atomic<const char*> arg1_name{nullptr};
  std::atomic<uint64_t> arg1{0};
  std::atomic<const char*> arg2_name{nullptr};
  std::atomic<uint64_t> arg2{0};
};

class TraceRecorder {
 public:
  static constexpr size_t kRingSize = 1 << 16;  // 64Ki events, power of two.

  static TraceRecorder& Global();

  /// Allocates the ring (first call) and starts recording.
  void Enable();
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }

  bool enabled() const {
#ifndef OCB_OBS_DISABLED
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  /// Records a complete ("X") event. \p name and arg names must point to
  /// static-storage strings (string literals at every call site).
  void RecordComplete(const char* name, uint64_t ts_nanos, uint64_t dur_nanos,
                      const char* arg1_name = nullptr, uint64_t arg1 = 0,
                      const char* arg2_name = nullptr, uint64_t arg2 = 0);

  /// Records an instant ("i") event at now.
  void RecordInstant(const char* name, const char* arg1_name = nullptr,
                     uint64_t arg1 = 0);

  /// Nanoseconds since the recorder's epoch (first Enable call).
  uint64_t NowNanos() const;

  /// Writes {"traceEvents":[...]} to \p path. Returns false on I/O error.
  /// Skips slots that are empty or were mid-write when sampled.
  bool Dump(const std::string& path) const;

  /// Serializes the ring to a JSON string (testing / Dump backend).
  std::string ToJson() const;

  /// Enables tracing if env OCB_TRACE is set; returns true if enabled.
  static bool InitFromEnvironment();
  /// Dumps to $OCB_TRACE if set and recording happened; returns the path
  /// written (empty if none).
  static std::string DumpToEnvPath();

  /// Events recorded since Enable (monotonic; may exceed kRingSize).
  uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }

 private:
  TraceRecorder() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> head_{0};
  std::unique_ptr<TraceEvent[]> ring_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> ring_ready_{false};
  /// Serializes ring allocation in Enable; the record path is lock-free
  /// (ring_/epoch_ are published through ring_ready_'s release store, so
  /// they are not OCB_GUARDED_BY this mutex).
  Mutex init_mu_{lockdep::kTraceRingClass};
};

/// Small dense thread id for trace events (0, 1, 2... in first-use order).
uint32_t TraceTid();

/// \brief RAII span: stamps start on construction, records an "X"
///        complete event on destruction. Near-zero cost when tracing is
///        off (one relaxed load, no clock read).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* arg1_name = nullptr,
                     uint64_t arg1 = 0, const char* arg2_name = nullptr,
                     uint64_t arg2 = 0)
#ifndef OCB_OBS_DISABLED
      : name_(name),
        arg1_name_(arg1_name),
        arg1_(arg1),
        arg2_name_(arg2_name),
        arg2_(arg2),
        active_(TraceRecorder::Global().enabled()) {
    if (active_) start_ = TraceRecorder::Global().NowNanos();
  }
#else
  {
    (void)name;
    (void)arg1_name;
    (void)arg1;
    (void)arg2_name;
    (void)arg2;
  }
#endif

  ~TraceSpan() {
#ifndef OCB_OBS_DISABLED
    if (!active_) return;
    auto& rec = TraceRecorder::Global();
    const uint64_t end = rec.NowNanos();
    rec.RecordComplete(name_, start_, end - start_, arg1_name_, arg1_,
                       arg2_name_, arg2_);
#endif
  }

  /// Updates an arg after construction (e.g. gc.pass reclaimed count,
  /// known only at the end of the work).
  void SetArg2(const char* name, uint64_t value) {
#ifndef OCB_OBS_DISABLED
    arg2_name_ = name;
    arg2_ = value;
#else
    (void)name;
    (void)value;
#endif
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
#ifndef OCB_OBS_DISABLED
  const char* name_;
  const char* arg1_name_;
  uint64_t arg1_;
  const char* arg2_name_;
  uint64_t arg2_;
  bool active_;
  uint64_t start_ = 0;
#endif
};

/// Records an instant event if tracing is on.
inline void TraceInstant(const char* name, const char* arg1_name = nullptr,
                         uint64_t arg1 = 0) {
#ifndef OCB_OBS_DISABLED
  auto& rec = TraceRecorder::Global();
  if (rec.enabled()) rec.RecordInstant(name, arg1_name, arg1);
#else
  (void)name;
  (void)arg1_name;
  (void)arg1;
#endif
}

}  // namespace obs
}  // namespace ocb

#endif  // OCB_OBS_TRACE_H_
