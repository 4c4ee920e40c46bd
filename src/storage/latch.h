/// \file latch.h
/// \brief Short-duration physical latches and per-thread wait accounting.
///
/// The storage substrate distinguishes *locks* (logical, transaction-
/// lifetime, managed by LockManager) from *latches* (physical, operation-
/// lifetime, plain mutexes). This header provides the latch-side plumbing:
///
///   * LatchMode — the access mode a page is latched in (kShared for
///     readers, kExclusive for mutators), carried by PageHandle.
///   * ThreadLatchWaits — a thread-local pair of counters recording how
///     long the calling thread spent *blocked* acquiring (a) the Database
///     facade/catalog latch and (b) page-level latches (frame latches and
///     buffer-pool stripe mutexes). The transaction executor snapshots the
///     counters around each transaction so PhaseMetrics can report
///     facade-latch vs page-latch wait per phase.
///
/// The accounting helpers take the uncontended path for free: they try_lock
/// first and only start a clock when that fails, so the fast path adds two
/// atomic ops at most and no timer syscalls.

#ifndef OCB_STORAGE_LATCH_H_
#define OCB_STORAGE_LATCH_H_

#include <chrono>
#include <cstdint>

#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "util/sync.h"

namespace ocb {

/// Access mode a page latch is held in.
enum class LatchMode : uint8_t {
  kShared = 0,    ///< Concurrent readers of the frame allowed.
  kExclusive = 1  ///< Single mutator, no readers.
};

inline const char* LatchModeToString(LatchMode mode) {
  return mode == LatchMode::kShared ? "S" : "X";
}

/// Per-thread cumulative latch-wait accounting (nanoseconds of wall time
/// spent blocked). Reset-by-snapshot: callers record before/after values
/// and subtract; the counters themselves only grow.
///
/// Contract for delta-takers (the transaction executor is the canonical
/// one): the counters are `thread_local`, so a delta is meaningful only
/// when the "before" and "after" snapshots are taken on the SAME thread
/// that performed the latched work — handing a transaction across
/// threads mid-flight would split its wait between two counters. That
/// is why TransactionResult's facade/page wait fields are filled inside
/// Execute on the client thread, and why the clients' per-phase waits
/// sum exactly to the merged phase totals: every nanosecond of blocked
/// wall time is charged to exactly one thread, once.
///
/// The counters deliberately never reset: concurrent phases on one
/// thread (cold run, warm run) each subtract their own start snapshot,
/// so overlapping intervals still attribute correctly. In a sharded
/// deployment the same two counters serve all shards — the split is by
/// latch *class* (facade/catalog vs page), not by owner, so per-shard
/// attribution comes from lock-manager stats instead.
struct ThreadLatchWaits {
  uint64_t facade_nanos = 0;  ///< Database facade/catalog latch.
  uint64_t page_nanos = 0;    ///< Frame latches + buffer-pool stripes.
};

/// The calling thread's latch-wait counters.
inline ThreadLatchWaits& CurrentThreadLatchWaits() {
  thread_local ThreadLatchWaits waits;
  return waits;
}

namespace latch_internal {

/// Registry histogram for blocked page-latch acquisitions ("latch.page.
/// wait", nanoseconds). Cached function-local static: one registry lookup
/// per process, null when the layer is compiled out. The thread-local
/// ThreadLatchWaits counters above stay the *primary* sink (they feed
/// TransactionResult); the registry histogram is a second sink fed from
/// the SAME measurement, so the two can never drift (ISSUE 6, dedupe
/// satellite).
inline obs::LatencyHistogram* PageWaitHistogram() {
#ifndef OCB_OBS_DISABLED
  static obs::LatencyHistogram* h =
      obs::MetricsRegistry::Global().GetHistogram("latch.page.wait");
  return h;
#else
  return nullptr;
#endif
}

/// Same for the facade/catalog latch ("latch.facade.wait").
inline obs::LatencyHistogram* FacadeWaitHistogram() {
#ifndef OCB_OBS_DISABLED
  static obs::LatencyHistogram* h =
      obs::MetricsRegistry::Global().GetHistogram("latch.facade.wait");
  return h;
#else
  return nullptr;
#endif
}

template <typename LockFn, typename TryFn>
inline void AcquireTimed(uint64_t* counter, obs::LatencyHistogram* histo,
                         const char* span_name, TryFn&& try_fn,
                         LockFn&& lock_fn) {
  if (try_fn()) return;  // Uncontended: no timing overhead.
  const auto start = std::chrono::steady_clock::now();
  lock_fn();
  const uint64_t waited = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  *counter += waited;
#ifndef OCB_OBS_DISABLED
  if (histo != nullptr) histo->Record(waited);
  auto& rec = obs::TraceRecorder::Global();
  if (rec.enabled()) {
    // Reconstruct the span start in recorder time from the measured wait
    // (both clocks are steady_clock, so the subtraction is exact).
    const uint64_t end_ns = rec.NowNanos();
    rec.RecordComplete(span_name, end_ns >= waited ? end_ns - waited : 0,
                       waited);
  }
#else
  (void)histo;
  (void)span_name;
#endif
}

}  // namespace latch_internal

// The helpers below are acquire-shaped: the caller (or its RAII guard /
// PageHandle) owns the release. The ocb::Mutex / ocb::SharedMutex
// overloads carry the caller-facing OCB_ACQUIRE contract; their *bodies*
// are exempt because the acquisition happens inside AcquireTimed's
// lambdas, a hop the intraprocedural analysis cannot follow (lockdep
// still sees it, via the wrappers' lock paths). The generic template
// stays unannotated: it may also serve std mutex types, and a capability
// attribute on a non-capability type is itself a
// -Wthread-safety-attributes error.

/// Locks \p mu exclusively, charging blocked time to the thread's
/// page-latch counter (generic, unannotated — see above).
template <typename MutexT>
inline void LatchPageExclusive(MutexT& mu) {
  latch_internal::AcquireTimed(
      &CurrentThreadLatchWaits().page_nanos,
      latch_internal::PageWaitHistogram(), "latch.page.wait",
      [&] { return mu.try_lock(); }, [&] { mu.lock(); });
}

inline void LatchPageExclusive(Mutex& mu)
    OCB_ACQUIRE(mu) OCB_NO_THREAD_SAFETY_ANALYSIS {
  LatchPageExclusive<Mutex>(mu);
}

inline void LatchPageExclusive(SharedMutex& mu)
    OCB_ACQUIRE(mu) OCB_NO_THREAD_SAFETY_ANALYSIS {
  LatchPageExclusive<SharedMutex>(mu);
}

/// Locks \p mu shared, charging blocked time to the page-latch counter.
inline void LatchPageShared(SharedMutex& mu)
    OCB_ACQUIRE_SHARED(mu) OCB_NO_THREAD_SAFETY_ANALYSIS {
  latch_internal::AcquireTimed(
      &CurrentThreadLatchWaits().page_nanos,
      latch_internal::PageWaitHistogram(), "latch.page.wait",
      [&] { return mu.try_lock_shared(); }, [&] { mu.lock_shared(); });
}

/// Locks \p mu exclusively, charging blocked time to the facade counter
/// (generic, unannotated — see above).
template <typename MutexT>
inline void LatchFacadeExclusive(MutexT& mu) {
  latch_internal::AcquireTimed(
      &CurrentThreadLatchWaits().facade_nanos,
      latch_internal::FacadeWaitHistogram(), "latch.facade.wait",
      [&] { return mu.try_lock(); }, [&] { mu.lock(); });
}

inline void LatchFacadeExclusive(SharedMutex& mu)
    OCB_ACQUIRE(mu) OCB_NO_THREAD_SAFETY_ANALYSIS {
  LatchFacadeExclusive<SharedMutex>(mu);
}

/// Locks \p mu shared, charging blocked time to the facade counter.
inline void LatchFacadeShared(SharedMutex& mu)
    OCB_ACQUIRE_SHARED(mu) OCB_NO_THREAD_SAFETY_ANALYSIS {
  latch_internal::AcquireTimed(
      &CurrentThreadLatchWaits().facade_nanos,
      latch_internal::FacadeWaitHistogram(), "latch.facade.wait",
      [&] { return mu.try_lock_shared(); }, [&] { mu.lock_shared(); });
}

/// RAII shared/exclusive facade-latch guards with wait accounting.
class OCB_SCOPED_CAPABILITY TimedSharedLock {
 public:
  explicit TimedSharedLock(SharedMutex& mu) OCB_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    LatchFacadeShared(mu_);
  }
  ~TimedSharedLock() OCB_RELEASE() { mu_.unlock_shared(); }
  TimedSharedLock(const TimedSharedLock&) = delete;
  TimedSharedLock& operator=(const TimedSharedLock&) = delete;

 private:
  SharedMutex& mu_;
};

class OCB_SCOPED_CAPABILITY TimedUniqueLock {
 public:
  explicit TimedUniqueLock(SharedMutex& mu) OCB_ACQUIRE(mu) : mu_(mu) {
    LatchFacadeExclusive(mu_);
  }
  ~TimedUniqueLock() OCB_RELEASE() { mu_.unlock(); }
  TimedUniqueLock(const TimedUniqueLock&) = delete;
  TimedUniqueLock& operator=(const TimedUniqueLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace ocb

#endif  // OCB_STORAGE_LATCH_H_
