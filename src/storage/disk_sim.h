/// \file disk_sim.h
/// \brief Simulated disk: the unit of OCB's headline metric (page I/Os).
///
/// Pages live in memory (optionally mirrored write-through to a real file);
/// every read/write increments a counter and charges simulated latency to a
/// SimClock. The paper distinguishes the I/Os needed to execute transactions
/// from the clustering overhead I/Os (§3.3, metrics): DiskSim therefore
/// attributes every I/O to the currently active *accounting scope*.

#ifndef OCB_STORAGE_DISK_SIM_H_
#define OCB_STORAGE_DISK_SIM_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
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

class DiskSim;
class IoBackend;

/// \brief One page I/O queued on an IoBackend worker (internal to DiskSim).
///
/// Only the worker path builds one. Accounting (counter increment,
/// simulated completion instant, overlap bookkeeping) happens at
/// *submission* on the caller's thread, so metric deltas and simulated
/// time stay deterministic regardless of worker scheduling; the worker
/// moves the bytes (plus the wall-clock sleep in wall_clock_io mode) and
/// publishes the result to the awaiting thread through the (mu, cv, done)
/// completion state. Inline completion (no backend) builds no request.
struct IoRequest {
  enum class Kind : uint8_t { kRead, kWrite };

  Kind kind = Kind::kRead;
  DiskSim* disk = nullptr;
  PageId page_id = kInvalidPageId;
  uint8_t* page = nullptr;             ///< The disk's page image.
  uint8_t* out = nullptr;              ///< Read destination (caller-owned).
  std::unique_ptr<uint8_t[]> payload;  ///< Write source (request-owned).
  uint64_t latency_nanos = 0;

  /// Completion state. The issue→await window spans threads and
  /// functions, so TSA cannot follow it; the mutex still registers with
  /// lockdep (rank: leaf under the stripe mutexes that await under them).
  Mutex mu{lockdep::kIoRequestClass};
  std::condition_variable_any cv;
  bool done OCB_GUARDED_BY(mu) = false;
  Status status OCB_GUARDED_BY(mu);
};

/// \brief Move-only handle to an issued page I/O.
///
/// Obtained from DiskSim::StartRead/StartWrite, resolved by
/// DiskSim::Await. It comes in two shapes with one contract:
///   * Inline: the disk has no I/O backend, or the request failed at
///     issue. The I/O already ran on the issuing thread, and the ticket
///     holds its status and simulated completion instant by value. There
///     is no heap request and no completion mutex.
///   * Queued: the ticket owns the IoRequest a worker executes.
///     Destroying an unawaited queued ticket blocks until the request has
///     executed (the worker writes through the request's buffers, so the
///     ticket may never outrun it) and drops the result.
class IoTicket {
 public:
  IoTicket() = default;
  ~IoTicket();

  IoTicket(IoTicket&& other) noexcept;
  IoTicket& operator=(IoTicket&& other) noexcept;
  IoTicket(const IoTicket&) = delete;
  IoTicket& operator=(const IoTicket&) = delete;

  /// False for default-constructed, moved-from and awaited tickets.
  bool valid() const { return completed_ || req_ != nullptr; }

 private:
  friend class DiskSim;
  IoTicket(Status status, uint64_t complete_sim_nanos)
      : completed_(true), status_(std::move(status)),
        complete_sim_nanos_(complete_sim_nanos) {}
  IoTicket(std::unique_ptr<IoRequest> req, uint64_t complete_sim_nanos)
      : req_(std::move(req)), complete_sim_nanos_(complete_sim_nanos) {}

  std::unique_ptr<IoRequest> req_;  ///< Queued: in flight on a worker.
  bool completed_ = false;          ///< Inline: status_ is the result.
  Status status_;
  /// Simulated instant the I/O completes (issue time + latency); Await
  /// advances the SimClock to it. 0 when no clock is attached.
  uint64_t complete_sim_nanos_ = 0;
};

/// \brief In-memory page array with I/O accounting and simulated latency.
///
/// Thread-safe for concurrent I/O on *distinct* pages: the page directory
/// is guarded by a reader/writer mutex (AllocatePage writes it, page I/O
/// reads it) and the counters are atomic. Concurrent ReadPage/WritePage of
/// the *same* page are excluded by the buffer pool's per-frame latches and
/// per-stripe eviction protocol, never by this class — raw multi-threaded
/// users must provide the same exclusion themselves. The same contract
/// extends to the async path: two in-flight requests on one page must be
/// ordered by the caller (the buffer pool awaits a page's pending
/// write-back before issuing a read or another write for it).
class DiskSim {
 public:
  /// \param clock Simulated clock charged for every I/O; may be nullptr to
  ///        disable latency accounting.
  explicit DiskSim(const StorageOptions& options, SimClock* clock = nullptr);
  ~DiskSim();

  DiskSim(const DiskSim&) = delete;
  DiskSim& operator=(const DiskSim&) = delete;

  /// Allocates a fresh zeroed page and returns its id. No I/O is charged;
  /// the page is charged when first written back.
  PageId AllocatePage();

  /// Copies page \p page_id into \p out (page_size bytes). Counts one read.
  /// Blocking: runs on the caller, like an inline StartRead + Await.
  Status ReadPage(PageId page_id, uint8_t* out);

  /// Overwrites page \p page_id from \p data. Counts one write. Blocking;
  /// \p data is read in place, never copied to a staging buffer.
  Status WritePage(PageId page_id, const uint8_t* data);

  // --- Asynchronous issue/await path ---

  /// Issues a read of \p page_id into \p out and returns immediately. The
  /// destination must stay valid (and unread) until Await returns. With
  /// io workers the byte movement happens on a backend thread; without,
  /// it happens inline and the ticket comes back already complete.
  IoTicket StartRead(PageId page_id, uint8_t* out);

  /// Issues a write of \p data (ownership transferred; page_size bytes)
  /// to \p page_id. The buffer is released when the request completes.
  IoTicket StartWrite(PageId page_id, std::unique_ptr<uint8_t[]> data);

  /// Blocks until \p ticket's request has executed, charges the request's
  /// simulated completion instant to the clock, records the wall wait in
  /// the "io.wait" histogram (queued tickets that were not yet done), and
  /// returns the request's status. The ticket becomes invalid; an invalid
  /// ticket returns InvalidArgument.
  Status Await(IoTicket& ticket);

  /// True when submissions run on background workers (io_workers > 0 or a
  /// shared backend was injected).
  bool async_enabled() const { return backend_ != nullptr; }

  /// The worker group (null in inline mode). Shards of one
  /// ShardedDatabase report the same backend.
  IoBackend* backend() const { return backend_.get(); }

  /// Sum of every successful request's device latency — what a fully
  /// serialized execution would have charged the clock.
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

  /// Executes \p request's byte movement (worker-side half). Public only
  /// for IoBackend's worker loop; not part of the user API.
  static void ExecuteRequest(IoRequest* request);

 private:
  friend class IoTicket;

  /// What issuing fixes on the caller's thread, for every path.
  struct Issued {
    Status status;            ///< IOError when the page is unallocated.
    uint8_t* page = nullptr;  ///< The page image (stable once allocated).
    uint64_t latency_nanos = 0;
    uint64_t complete_sim_nanos = 0;
  };

  /// Accounting: resolves the page image, counts the I/O in the current
  /// scope, adds its latency to serial_io_nanos and stamps its simulated
  /// completion instant. Charges nothing for an unallocated page.
  Issued Issue(IoRequest::Kind kind, PageId page_id);

  /// Moves one I/O's bytes on the calling thread, after the wall_clock_io
  /// sleep: a read copies the page image into \p out, a write copies \p in
  /// over it and writes it through to the backing file.
  Status Transfer(IoRequest::Kind kind, PageId page_id, uint8_t* page,
                  uint64_t latency_nanos, uint8_t* out, const uint8_t* in);

  /// Issues and transfers on the caller: the inline-completion ticket.
  IoTicket RunInline(IoRequest::Kind kind, PageId page_id, uint8_t* out,
                     const uint8_t* in);

  /// Queues a charged request on the backend, or runs it inline when
  /// there is none (or it failed at issue).
  IoTicket Start(IoRequest::Kind kind, PageId page_id, uint8_t* out,
                 std::unique_ptr<uint8_t[]> payload);

  /// Await without histogram/clock bookkeeping — the abandoned-ticket
  /// path (charging still happens because accounting is submission-side,
  /// except the clock advance, which an abandoned result forfeits).
  static void WaitDone(IoRequest* request);

  StorageOptions options_;
  SimClock* clock_;
  std::shared_ptr<IoBackend> backend_;
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
  /// Serializes write-through fseek+fwrite pairs. The pointer itself is
  /// set at construction and read freely; the mutex guards the stream
  /// *position* between the seek and the write.
  Mutex backing_mu_{lockdep::kDiskBackingClass};
  std::FILE* backing_ = nullptr;
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
