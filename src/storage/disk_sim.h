/// \file disk_sim.h
/// \brief Simulated disk: the unit of OCB's headline metric (page I/Os).
///
/// Pages live in memory; every read/write increments a counter and charges
/// simulated latency to a SimClock. The paper distinguishes the I/Os
/// needed to execute transactions from the clustering overhead I/Os (§3.3,
/// metrics): DiskSim therefore attributes every I/O to the currently active
/// *accounting scope*.
///
/// Every I/O runs inline on the caller's thread, in one call: ReadPage and
/// WritePage stamp the I/O's simulated completion instant (now + latency),
/// copy the page, and advance the SimClock to that instant. The advance is
/// a max (SimClock::AdvanceTo), so the I/Os of concurrent clients overlap
/// in simulated time while one thread's I/Os add up serially.

#ifndef OCB_STORAGE_DISK_SIM_H_
#define OCB_STORAGE_DISK_SIM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "storage/storage_options.h"
#include "storage/types.h"
#include "util/sim_clock.h"
#include "util/status.h"
#include "util/sync.h"

namespace ocb {

/// Who is performing I/O right now. Mirrors the paper's metric split.
enum class IoScope {
  kGeneration = 0,  ///< Database creation / load phase.
  kTransaction,     ///< Workload transactions (the paper's "I/Os").
  kClustering,      ///< Clustering overhead (statistics + reorganization).
  kNumScopes,
};

const char* IoScopeToString(IoScope scope);

/// Per-scope read/write counters.
///
/// Fields are atomic (relaxed) so concurrent clients may increment from
/// any thread while phase-boundary readers snapshot concurrently;
/// copying yields a plain consistent-enough snapshot for metric deltas.
struct IoCounters {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};

  IoCounters() = default;
  IoCounters(const IoCounters& other)
      : reads(other.reads.load(std::memory_order_relaxed)),
        writes(other.writes.load(std::memory_order_relaxed)) {}
  IoCounters& operator=(const IoCounters& other) {
    reads.store(other.reads.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    writes.store(other.writes.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  uint64_t total() const {
    return reads.load(std::memory_order_relaxed) +
           writes.load(std::memory_order_relaxed);
  }
};

/// \brief In-memory page array with I/O accounting and simulated latency.
///
/// Thread-safe for concurrent I/O on *distinct* pages: the page directory
/// is guarded by a reader/writer mutex (AllocatePage writes it, page I/O
/// reads it) and the counters are atomic. Concurrent ReadPage/WritePage of
/// the *same* page are excluded by the buffer pool's per-frame latches and
/// per-stripe eviction protocol, never by this class — raw multi-threaded
/// users must provide the same exclusion themselves.
class DiskSim {
 public:
  /// \param clock Simulated clock charged for every I/O; may be nullptr to
  ///        disable latency accounting.
  explicit DiskSim(const StorageOptions& options, SimClock* clock = nullptr);

  DiskSim(const DiskSim&) = delete;
  DiskSim& operator=(const DiskSim&) = delete;

  /// Allocates a fresh zeroed page and returns its id. No I/O is charged;
  /// the page is charged when first written back.
  PageId AllocatePage();

  /// Copies page \p page_id into \p out (page_size bytes). Counts one read
  /// and advances the clock by its latency. An unallocated page fails with
  /// IOError and charges nothing.
  Status ReadPage(PageId page_id, uint8_t* out);

  /// Overwrites page \p page_id from \p data. Counts one write and
  /// advances the clock by its latency; \p data is read in place, never
  /// copied to a staging buffer.
  Status WritePage(PageId page_id, const uint8_t* data);

  /// Sum of every charged I/O's device latency — what a fully serialized
  /// execution would have charged the clock.
  uint64_t serial_io_nanos() const {
    return serial_io_nanos_.load(std::memory_order_relaxed);
  }

  /// Simulated nanoseconds actually charged to the clock by I/O
  /// completions. serial/charged >= 1 is the overlap ratio: 1.0 means
  /// fully serialized, N means N-way overlapped on average.
  uint64_t charged_io_nanos() const {
    return charged_io_nanos_.load(std::memory_order_relaxed);
  }

  /// Number of allocated pages.
  size_t num_pages() const {
    ReaderMutexLock lock(pages_mu_);
    return pages_.size();
  }

  /// Direct (uncounted, zero-latency) access to a page image — snapshot
  /// save/load utilities only; all benchmark reads go through ReadPage.
  const uint8_t* raw_page(PageId page_id) const {
    ReaderMutexLock lock(pages_mu_);
    return pages_[page_id].get();  // Buffer address is stable once allocated.
  }

  /// Overwrites a page image without I/O accounting (snapshot load only).
  void LoadPageImage(PageId page_id, const uint8_t* data);

  size_t page_size() const { return options_.page_size; }

  /// Sets the accounting scope for subsequent I/Os.
  void set_scope(IoScope scope) {
    scope_.store(scope, std::memory_order_relaxed);
  }
  IoScope scope() const { return scope_.load(std::memory_order_relaxed); }

  /// Counters for one scope.
  const IoCounters& counters(IoScope scope) const {
    return counters_[static_cast<size_t>(scope)];
  }

  /// Sum over all scopes.
  IoCounters TotalCounters() const;

  /// Zeroes all counters (pages are untouched).
  void ResetCounters();

 private:
  /// Resolves \p page_id's image and charges one I/O to the current scope:
  /// the scope counter, serial_io_nanos and, with a clock, the completion
  /// instant written to \p complete_sim_nanos. Returns null, charging
  /// nothing, for an unallocated page.
  uint8_t* Charge(PageId page_id, bool write, uint64_t* complete_sim_nanos);

  /// Advances the clock to a successful I/O's completion instant and adds
  /// the advance to charged_io_nanos.
  void AdvanceClock(uint64_t complete_sim_nanos);

  StorageOptions options_;
  SimClock* clock_;
  std::atomic<uint64_t> serial_io_nanos_{0};
  std::atomic<uint64_t> charged_io_nanos_{0};
  std::atomic<IoScope> scope_{IoScope::kGeneration};
  /// Guards the page *directory* (the vector, not the page bytes):
  /// AllocatePage appends under a writer lock; page I/O resolves the
  /// buffer under a reader lock. Same-page byte races are the buffer
  /// pool's contract (see class comment).
  mutable SharedMutex pages_mu_{lockdep::kDiskDirectoryClass};
  std::vector<std::unique_ptr<uint8_t[]>> pages_ OCB_GUARDED_BY(pages_mu_);
  std::array<IoCounters, static_cast<size_t>(IoScope::kNumScopes)> counters_;
};

/// \brief RAII guard that switches the DiskSim accounting scope and restores
/// the previous scope on destruction.
class ScopedIoScope {
 public:
  ScopedIoScope(DiskSim* disk, IoScope scope)
      : disk_(disk), previous_(disk->scope()) {
    disk_->set_scope(scope);
  }
  ~ScopedIoScope() { disk_->set_scope(previous_); }

  ScopedIoScope(const ScopedIoScope&) = delete;
  ScopedIoScope& operator=(const ScopedIoScope&) = delete;

 private:
  DiskSim* disk_;
  IoScope previous_;
};

/// \brief ScopedIoScope generalized over the engine surface: works for
/// any type exposing io_scope()/SetIoScope (Database switches its one
/// DiskSim, ShardedDatabase switches every shard's). The templated OCB
/// execution layer uses this form.
template <typename DB>
class ScopedEngineIoScope {
 public:
  ScopedEngineIoScope(DB* db, IoScope scope)
      : db_(db), previous_(db->io_scope()) {
    db_->SetIoScope(scope);
  }
  ~ScopedEngineIoScope() { db_->SetIoScope(previous_); }

  ScopedEngineIoScope(const ScopedEngineIoScope&) = delete;
  ScopedEngineIoScope& operator=(const ScopedEngineIoScope&) = delete;

 private:
  DB* db_;
  IoScope previous_;
};

}  // namespace ocb

#endif  // OCB_STORAGE_DISK_SIM_H_
