/// \file sim_clock.h
/// \brief Deterministic simulated clock.
///
/// OCB's headline metrics are I/O counts, but the paper also reports
/// response times. Wall-clock time on modern hardware bears no relation to a
/// 1998 SPARC/ELC, so the storage substrate charges *simulated* latency
/// (disk reads/writes, THINK time) to a SimClock. Results are therefore
/// deterministic and machine-independent; wall time is reported separately.

#ifndef OCB_UTIL_SIM_CLOCK_H_
#define OCB_UTIL_SIM_CLOCK_H_

#include <atomic>
#include <cstdint>

namespace ocb {

/// \brief Monotonic nanosecond counter advanced explicitly by the simulation.
///
/// Atomic so CLIENTN client threads can charge THINK time and read
/// timestamps concurrently; relaxed ordering suffices — the counter is a
/// statistic, not a synchronization point.
class SimClock {
 public:
  /// Current simulated time in nanoseconds since construction.
  uint64_t now_nanos() const {
    return nanos_.load(std::memory_order_relaxed);
  }

  /// Advances the clock by \p nanos nanoseconds.
  void Advance(uint64_t nanos) {
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }

  /// Advances the clock to at least \p target_nanos; a no-op if the clock
  /// is already past it. Returns the nanoseconds actually added.
  ///
  /// This is how concurrent clients' I/Os overlap in simulated time: each
  /// I/O stamps its own completion instant (start time + device latency)
  /// and the clock takes the max, so K clients' reads in flight together
  /// advance the clock by ~one latency, not K of them, while one thread's
  /// I/Os, each started after the previous one advanced the clock, still
  /// add up to the full serial sum.
  uint64_t AdvanceTo(uint64_t target_nanos) {
    uint64_t current = nanos_.load(std::memory_order_relaxed);
    while (current < target_nanos) {
      if (nanos_.compare_exchange_weak(current, target_nanos,
                                       std::memory_order_relaxed)) {
        return target_nanos - current;
      }
    }
    return 0;
  }

  /// Resets the clock to zero.
  void Reset() { nanos_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> nanos_{0};
};

}  // namespace ocb

#endif  // OCB_UTIL_SIM_CLOCK_H_
