/// \file buffer_pool.h
/// \brief Striped, page-latched cache between the object store and DiskSim.
///
/// A buffer-pool *miss* is exactly one disk read; evicting a dirty frame is
/// one disk write. This is the mechanism by which object clustering shows
/// up in OCB's metrics: co-locating frequently co-accessed objects on the
/// same page turns would-be misses into hits.
///
/// Concurrency (latching contract):
///
///   * The page table is *striped*: page p belongs to stripe p % N, each
///     stripe with its own mutex, its own share of the frames, and its own
///     LRU list. A miss (victim writeback + disk read) in one stripe never
///     blocks hits or misses in another, so CLIENTN clients overlap their
///     physical I/O instead of convoying on one pool-wide latch. N
///     defaults to 1 for small pools (< 64 frames, preserving exact
///     single-list LRU order) and to OCB_LATCH_STRIPES (8 unless
///     overridden at build time) otherwise; StorageOptions::latch_stripes
///     pins it explicitly.
///   * Every frame carries a reader/writer *page latch* and an atomic pin
///     count. FetchPage/NewPage return a PageHandle that holds the frame
///     pinned (pin blocks eviction) and latched in the requested LatchMode:
///     kShared readers of one page proceed in parallel, a kExclusive
///     mutator excludes them for the duration of the handle. Latches are
///     operation-lifetime only — transaction-lifetime isolation is the
///     LockManager's job (see database.h for the full lock → catalog latch
///     → page latch hierarchy).
///   * Callers must not fetch a page they already hold a handle to (frame
///     latches are not recursive), and a thread holding one handle may
///     fetch a second page only in ascending page-id order (the object
///     store's relocation paths follow this rule; single-handle callers
///     are unconstrained).
///
/// Quiesce: reorganizers and snapshot save/load need the pre-latch world —
/// exclusive access to every page at once. BeginQuiesce() blocks new
/// fetches from other threads (threads mid-operation, i.e. already holding
/// a pin, are allowed to finish) and waits until every outstanding pin has
/// drained; the owning thread then operates alone. A fetch counts its pin
/// before it checks the gate (and backs out if it is closed), so no frame
/// is pinned once BeginQuiesce has returned. Database::QuiesceGuard is the
/// intended entry point.
///
/// Page reads are demand-paged: FetchPage is the only read. A miss claims
/// and X-latches a frame under the stripe mutex, installs it, and reads the
/// page from disk outside the mutex while holding the frame latch, so
/// concurrent fetchers of the page pin the frame and wait on its latch
/// while the rest of the stripe stays available. A failed read uninstalls
/// the frame; a waiter re-checks the frame's page id once latched and
/// retries. A dirty victim is written back by the miss that evicts it,
/// under the stripe mutex.

#ifndef OCB_STORAGE_BUFFER_POOL_H_
#define OCB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "storage/disk_sim.h"
#include "storage/latch.h"
#include "storage/page.h"
#include "storage/storage_options.h"
#include "storage/types.h"
#include "util/status.h"
#include "util/sync.h"

namespace ocb {

class BufferPool;

/// \brief Pinned, latched reference to a cached page; unlatches and unpins
/// on destruction.
///
/// Handles are movable but not copyable, and must not outlive their pool.
/// Mutating the page through the handle requires a kExclusive handle and a
/// MarkDirty() call so the frame is written back on eviction. A handle must
/// be released by the thread that fetched it (the latch is thread-owned).
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame_index, uint8_t* data,
             size_t page_size, LatchMode mode);
  ~PageHandle();

  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;

  bool valid() const { return pool_ != nullptr; }

  /// Latch mode the frame is held in.
  LatchMode mode() const { return mode_; }

  /// Typed slotted-page view over the cached frame.
  Page page() { return Page(data_, page_size_); }
  const Page page() const { return Page(data_, page_size_); }

  /// Marks the frame dirty (must be called after any mutation; requires a
  /// kExclusive handle).
  void MarkDirty();

  /// Explicitly unlatches and unpins; the handle becomes invalid.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_index_ = 0;
  uint8_t* data_ = nullptr;
  size_t page_size_ = 0;
  LatchMode mode_ = LatchMode::kExclusive;
};

/// Hit/miss statistics of a buffer pool.
struct BufferPoolStats {
  // Atomic (relaxed) so phase-boundary readers may snapshot while other
  // client threads hit the pool concurrently.
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> dirty_writebacks{0};

  BufferPoolStats() = default;
  BufferPoolStats(const BufferPoolStats& other)
      : hits(other.hits.load(std::memory_order_relaxed)),
        misses(other.misses.load(std::memory_order_relaxed)),
        evictions(other.evictions.load(std::memory_order_relaxed)),
        dirty_writebacks(
            other.dirty_writebacks.load(std::memory_order_relaxed)) {}
  BufferPoolStats& operator=(const BufferPoolStats& other) {
    hits.store(other.hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    misses.store(other.misses.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    evictions.store(other.evictions.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    dirty_writebacks.store(
        other.dirty_writebacks.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  double hit_ratio() const {
    const uint64_t total = hits.load(std::memory_order_relaxed) +
                           misses.load(std::memory_order_relaxed);
    return total == 0
               ? 0.0
               : static_cast<double>(hits.load(std::memory_order_relaxed)) /
                     total;
  }
};

/// \brief Striped LRU page cache over a DiskSim.
///
/// Thread-safe: concurrent FetchPage/NewPage/handle-release from any number
/// of threads. FlushAll/InvalidateAll/ResetStats are safe but intended for
/// idle or quiesced moments (they visit every stripe).
class BufferPool {
 public:
  BufferPool(DiskSim* disk, const StorageOptions& options);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned handle to \p page_id latched in \p mode, reading the
  /// page from disk on a miss. kShared handles of one page coexist; a
  /// kExclusive handle waits out every other handle of that page. A failed
  /// read uninstalls the frame and returns the disk's error; NoSpace when
  /// every frame of the page's stripe is pinned.
  Result<PageHandle> FetchPage(PageId page_id,
                               LatchMode mode = LatchMode::kExclusive);

  /// Allocates a brand-new page on disk and returns it pinned, dirty and
  /// kExclusive-latched.
  Result<PageHandle> NewPage(PageId* out_page_id = nullptr);

  /// Writes back every dirty frame (e.g. after the generation phase).
  Status FlushAll();

  /// Drops every unpinned frame (writing dirty ones back first). Used by
  /// benchmarks to cold-start the cache between runs.
  Status InvalidateAll();

  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

  size_t capacity() const { return frame_count_; }
  size_t pinned_frames() const;
  DiskSim* disk() { return disk_; }

  /// Number of page-table stripes in effect (1 = the degenerate,
  /// seed-equivalent single-latch layout).
  size_t latch_stripes() const { return stripes_.size(); }

  /// Sum of all outstanding pins, plus fetches counted at the quiesce
  /// gate that have not pinned a frame yet (0 when no handle is live and
  /// no fetch is in progress).
  uint64_t total_pins() const {
    return static_cast<uint64_t>(
        total_pins_.load(std::memory_order_acquire));
  }

  // --- Quiesce gate (Database::QuiesceGuard) ---

  /// Blocks until every outstanding pin has drained and, until the matching
  /// EndQuiesce, makes other threads' FetchPage/NewPage wait *before*
  /// pinning anything (threads already holding a pin — i.e. mid multi-page
  /// operation — pass through so pins always drain). Re-entrant on the
  /// owning thread.
  void BeginQuiesce();
  void EndQuiesce();

 private:
  friend class PageHandle;

  struct Frame {
    /// The page latch. Its lockdep key is rebound (SetLockdepKey) to the
    /// resident page id at every install, so the ascending-page-id
    /// multi-handle rule is checked against *page* order, which is what
    /// the contract promises — frame indices are an implementation
    /// accident.
    SharedMutex latch{lockdep::kFrameLatchClass};
    std::atomic<uint32_t> pin_count{0};  ///< Pinned frames are not evicted.
    // The fields below are guarded by the owning stripe's mutex, except
    // `dirty` (guarded by the frame latch) and `data` (allocated once, by
    // the first claim of the frame under the stripe mutex + frame latch,
    // and stable from then on; the bytes are guarded by the frame latch).
    PageId page_id = kInvalidPageId;
    std::unique_ptr<uint8_t[]> data;
    bool dirty = false;
    std::list<size_t>::iterator lru_pos;  // Valid iff resident.
  };

  /// One page-table shard: pages with page_id % stripes == index live here,
  /// cached in the frames this stripe owns (frame % stripes == index).
  /// The stripe index is the mutex's lockdep key; no path holds two
  /// stripe mutexes at once.
  struct Stripe {
    explicit Stripe(size_t index) : mu(lockdep::kBufferStripeClass, index) {}

    using PageTable = std::unordered_map<PageId, size_t>;

    mutable Mutex mu;
    PageTable page_table OCB_GUARDED_BY(mu);
    /// Front = most recent, back = victim.
    std::list<size_t> lru OCB_GUARDED_BY(mu);
    /// Retired page-table and LRU nodes, parked by RetireEntry for the
    /// next InstallEntry: a miss that evicts allocates and frees nothing
    /// under the stripe mutex. spare_entries is reserved to the stripe's
    /// frame count (no table ever holds more nodes), so parking never
    /// grows it.
    std::vector<PageTable::node_type> spare_entries OCB_GUARDED_BY(mu);
    std::list<size_t> spare_lru OCB_GUARDED_BY(mu);
    std::vector<size_t> free_frames OCB_GUARDED_BY(mu);
  };

  Stripe& stripe_of(PageId page_id) {
    return *stripes_[page_id % stripes_.size()];
  }

  /// The quiesce gate's entry side, called before a fetch pins anything.
  /// Counts the pin first (total_pins_ and the thread's pin depth) and
  /// only then checks the gate, so a pin can never slip past a quiescer
  /// that already saw zero pins. When the gate is closed and the caller is
  /// neither its owner nor mid-operation (already holding a pin), backs
  /// the count out, waits for the gate to open and retries. Every call is
  /// paired with Unpin, or with DropPinCount when no frame gets pinned.
  void AdmitPin();

  /// Undoes one AdmitPin count (Unpin's tail): the last pin to drain
  /// wakes a waiting quiescer.
  void DropPinCount();

  /// Claims a frame of \p stripe for a new resident page and returns it
  /// with its latch held exclusively, evicting a victim if needed (victim
  /// writeback happens under the stripe mutex, so a concurrent re-fetch of
  /// the victim page — same stripe by construction — serializes behind the
  /// completed writeback). Requires \p stripe.mu.
  Result<size_t> ClaimFrame(Stripe& stripe) OCB_REQUIRES(stripe.mu);

  /// Evicts resident \p frame_index (writes back if dirty) and removes the
  /// page-table entry. Requires \p stripe.mu and the frame latch.
  Status EvictFrame(Stripe& stripe, size_t frame_index)
      OCB_REQUIRES(stripe.mu);

  /// Uninstalls a miss frame whose read failed (FetchPage's disk-error
  /// cleanup). Requires the frame X latch, which it releases along with
  /// the pin; late waiters on the latch see the cleared page_id and retry.
  void UninstallFailedMiss(size_t frame_index, PageId page_id);

  void Unpin(size_t frame_index, LatchMode mode,
             bool latch_already_released = false);
  void TouchLru(Stripe& stripe, size_t frame_index)
      OCB_REQUIRES(stripe.mu);

  /// Makes \p frame_index the resident frame of \p page_id: a page-table
  /// entry and the most-recent LRU position, both reusing parked nodes
  /// when the stripe has any. Requires \p stripe.mu.
  void InstallEntry(Stripe& stripe, PageId page_id, size_t frame_index)
      OCB_REQUIRES(stripe.mu);

  /// Removes resident \p frame_index's page-table entry and LRU node and
  /// parks both for the next InstallEntry. Requires \p stripe.mu.
  void RetireEntry(Stripe& stripe, size_t frame_index)
      OCB_REQUIRES(stripe.mu);

  DiskSim* disk_;
  StorageOptions options_;
  size_t frame_count_ = 0;
  std::unique_ptr<Frame[]> frames_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  BufferPoolStats stats_;

  // Quiesce gate state. The atomics are the fast-path reads (pin counts,
  // "is anyone quiescing"); owner identity and depth only change under
  // quiesce_mu_.
  std::atomic<bool> quiescing_{false};
  std::atomic<int64_t> total_pins_{0};
  Mutex quiesce_mu_{lockdep::kQuiesceClass};
  std::condition_variable_any quiesce_cv_;
  std::thread::id quiesce_owner_ OCB_GUARDED_BY(quiesce_mu_){};
  int quiesce_depth_ OCB_GUARDED_BY(quiesce_mu_) = 0;
};

}  // namespace ocb

#endif  // OCB_STORAGE_BUFFER_POOL_H_
