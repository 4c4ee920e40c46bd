#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/trace.h"
#include "util/format.h"

namespace ocb {

namespace {

// Stripe count: explicit option wins; otherwise pools of >= 64 frames get
// the build-time default (OCB_LATCH_STRIPES, 8 unless overridden) and
// smaller pools stay single-striped so the seed's exact global LRU order is
// preserved for the replacement-policy ablations and their tests. When the
// build pins OCB_LATCH_STRIPES it also caps explicit requests — that is
// what the -DOCB_LATCH_STRIPES=1 CI configuration uses to prove correctness
// does not depend on striping.
#ifdef OCB_LATCH_STRIPES
constexpr size_t kDefaultStripes = OCB_LATCH_STRIPES;
#else
constexpr size_t kDefaultStripes = 8;
#endif
constexpr size_t kAutoStripeMinFrames = 64;

size_t EffectiveStripes(const StorageOptions& options) {
  size_t stripes =
      options.latch_stripes != 0
          ? options.latch_stripes
          : (options.buffer_pool_pages >= kAutoStripeMinFrames
                 ? kDefaultStripes
                 : 1);
#ifdef OCB_LATCH_STRIPES
  stripes = std::min(stripes, kDefaultStripes);
#endif
  stripes = std::max<size_t>(stripes, 1);
  return std::min(stripes, options.buffer_pool_pages);
}

// Outstanding pins held by the calling thread. Lets the quiesce gate admit
// threads that are mid multi-page operation (they must be able to finish so
// pins drain) while parking threads that have not started one. The counter
// is per thread, not per pool: in practice a thread operates on one
// Database's pool at a time.
thread_local int64_t tls_pin_depth = 0;

}  // namespace

PendingFetch::~PendingFetch() {
  if (pool_ != nullptr) pool_->FinishPrefetch(*this);
}

PendingFetch::PendingFetch(PendingFetch&& other) noexcept
    : pool_(other.pool_), frame_index_(other.frame_index_),
      page_id_(other.page_id_), mode_(other.mode_), miss_(other.miss_),
      ticket_(std::move(other.ticket_)),
      issue_status_(other.issue_status_) {
  other.pool_ = nullptr;
}

PendingFetch& PendingFetch::operator=(PendingFetch&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->FinishPrefetch(*this);
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    page_id_ = other.page_id_;
    mode_ = other.mode_;
    miss_ = other.miss_;
    ticket_ = std::move(other.ticket_);
    issue_status_ = other.issue_status_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageHandle::PageHandle(BufferPool* pool, size_t frame_index, uint8_t* data,
                       size_t page_size, LatchMode mode)
    : pool_(pool), frame_index_(frame_index), data_(data),
      page_size_(page_size), mode_(mode) {}

PageHandle::~PageHandle() { Release(); }

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_index_(other.frame_index_),
      data_(other.data_), page_size_(other.page_size_), mode_(other.mode_) {
  other.pool_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_index_ = other.frame_index_;
    data_ = other.data_;
    page_size_ = other.page_size_;
    mode_ = other.mode_;
    other.pool_ = nullptr;
  }
  return *this;
}

void PageHandle::MarkDirty() {
  assert(valid());
  assert(mode_ == LatchMode::kExclusive);
  pool_->frames_[frame_index_].dirty = true;
}

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_index_, mode_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskSim* disk, const StorageOptions& options)
    : disk_(disk), options_(options) {
  frame_count_ = options.buffer_pool_pages;
  frames_ = std::make_unique<Frame[]>(frame_count_);
  const size_t stripe_count = EffectiveStripes(options);
  stripes_.reserve(stripe_count);
  for (size_t s = 0; s < stripe_count; ++s) {
    stripes_.push_back(std::make_unique<Stripe>(s));
  }
  // Frame i belongs to stripe i % N; free lists hand out the lowest frame
  // first, matching the seed's allocation order in the 1-stripe layout.
  for (size_t i = frame_count_; i > 0; --i) {
    Stripe& stripe = *stripes_[(i - 1) % stripe_count];
    stripe.free_frames.push_back(i - 1);
  }
  for (size_t i = 0; i < frame_count_; ++i) {
    stripes_[i % stripe_count]->owned_frames.push_back(i);
  }
  // Resolve the latch-wait instruments now, with no lock held. The first
  // lookup takes the metrics-registry mutex, which ranks above every
  // engine mutex (Snapshot() runs gauge callbacks under it) — so a lazy
  // resolution from a latch callsite while this thread already holds a
  // frame latch (the prefetch issue loop) would invert the hierarchy.
  latch_internal::PageWaitHistogram();
  latch_internal::FacadeWaitHistogram();
}

// TSA exemption: the cv wait unlocks and relocks quiesce_mu_ mid-function,
// a flow the intraprocedural analysis cannot follow; lockdep still sees
// every transition.
void BufferPool::MaybeWaitForQuiesce() OCB_NO_THREAD_SAFETY_ANALYSIS {
  if (!quiescing_.load(std::memory_order_acquire)) return;
  if (tls_pin_depth > 0) return;  // Mid-operation: allowed to finish.
  std::unique_lock<Mutex> lock(quiesce_mu_);
  if (quiesce_owner_ == std::this_thread::get_id()) return;
  quiesce_cv_.wait(lock, [&] { return quiesce_depth_ == 0; });
}

// TSA exemption: cv waits relock quiesce_mu_ mid-function.
void BufferPool::BeginQuiesce() OCB_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<Mutex> lock(quiesce_mu_);
  const std::thread::id me = std::this_thread::get_id();
  if (quiesce_depth_ > 0 && quiesce_owner_ == me) {
    ++quiesce_depth_;
    return;
  }
  assert(tls_pin_depth == 0 &&
         "quiesce owner must not hold page handles when entering");
  quiesce_cv_.wait(lock, [&] { return quiesce_depth_ == 0; });
  quiesce_owner_ = me;
  quiesce_depth_ = 1;
  // Sequentially consistent with Unpin's decrement-then-check: this side
  // stores quiescing_ then reads total_pins_, Unpin decrements
  // total_pins_ then reads quiescing_. With weaker orders both sides may
  // read the old value (store-buffer reordering on a multi-core host), the
  // last unpinner skips the notify, and this wait sleeps forever with the
  // gate closed.
  quiescing_.store(true, std::memory_order_seq_cst);
  // Drain: in-flight operations keep their gate exemption via tls_pin_depth
  // and finish; nobody else can start pinning.
  quiesce_cv_.wait(lock, [&] {
    return total_pins_.load(std::memory_order_seq_cst) == 0;
  });
  // With every pin drained and the gate closed, settle the background
  // write-back queue too: the quiesce owner (snapshot save/load, cold
  // restart) expects all physical I/O at rest. The awaits only block on
  // the I/O workers, which never take pool mutexes.
  DrainWritebacks();
}

void BufferPool::EndQuiesce() {
  MutexLock lock(quiesce_mu_);
  assert(quiesce_depth_ > 0 &&
         quiesce_owner_ == std::this_thread::get_id());
  if (--quiesce_depth_ == 0) {
    quiesce_owner_ = std::thread::id{};
    quiescing_.store(false, std::memory_order_release);
    quiesce_cv_.notify_all();
  }
}

Result<PageHandle> BufferPool::FetchPage(PageId page_id, LatchMode mode) {
  return Await(StartFetch(page_id, mode));
}

// TSA exemption: the miss path returns holding the frame's X latch (the
// matching release lives in Await/FinishPrefetch), a cross-function hold
// the intraprocedural analysis cannot follow; lockdep tracks it.
PendingFetch BufferPool::StartFetch(PageId page_id, LatchMode mode)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  MaybeWaitForQuiesce();
  Stripe& stripe = stripe_of(page_id);
  PendingFetch fetch;
  fetch.page_id_ = page_id;
  fetch.mode_ = mode;
  {
    LatchPageExclusive(stripe.mu);
    std::unique_lock<Mutex> lock(stripe.mu, std::adopt_lock);
    auto it = stripe.page_table.find(page_id);
    if (it != stripe.page_table.end()) {
      stats_.hits.fetch_add(1, std::memory_order_relaxed);
      const size_t frame_index = it->second;
      Frame& frame = frames_[frame_index];
      frame.pin_count.fetch_add(1, std::memory_order_relaxed);
      total_pins_.fetch_add(1, std::memory_order_acq_rel);
      ++tls_pin_depth;
      frame.referenced = true;
      TouchLru(stripe, frame_index);
      fetch.pool_ = this;
      fetch.frame_index_ = frame_index;
      fetch.miss_ = false;
      return fetch;
    }
    stats_.misses.fetch_add(1, std::memory_order_relaxed);
    auto claimed = ClaimFrame(stripe);
    if (!claimed.ok()) {
      fetch.issue_status_ = claimed.status();
      return fetch;
    }
    const size_t frame_index = claimed.value();
    Frame& frame = frames_[frame_index];
    if (frame.data == nullptr) {
      frame.data = std::make_unique<uint8_t[]>(options_.page_size);
    }
    frame.page_id = page_id;
    frame.latch.SetLockdepKey(page_id);
    frame.dirty = false;
    frame.referenced = true;
    frame.pin_count.fetch_add(1, std::memory_order_relaxed);
    total_pins_.fetch_add(1, std::memory_order_acq_rel);
    ++tls_pin_depth;
    stripe.page_table[page_id] = frame_index;
    stripe.lru.push_front(frame_index);
    frame.lru_pos = stripe.lru.begin();
    fetch.pool_ = this;
    fetch.frame_index_ = frame_index;
    fetch.miss_ = true;
    // If this page's previous dirty image is still on the write-back
    // queue, retire that write before re-reading — per-page write→read
    // order is the pool's contract with DiskSim.
    Status settled = SettleWriteback(stripe, page_id);
    if (!settled.ok()) {
      lock.unlock();
      UninstallFailedMiss(frame_index, page_id);
      fetch.pool_ = nullptr;
      fetch.issue_status_ = settled;
      return fetch;
    }
  }
  // Miss I/O is *issued* outside the stripe mutex, under the frame's X
  // latch (held since ClaimFrame): concurrent fetchers of this page pin
  // the frame and block on the latch until Await installs the bytes,
  // while the rest of the stripe stays available. The span covers the
  // inline execution in blocking mode and just the submission with I/O
  // workers (the wait lands in the "io.wait" histogram).
  {
    obs::TraceSpan io_span("io.miss", "page", page_id);
    fetch.ticket_ =
        disk_->StartRead(page_id, frames_[fetch.frame_index_].data.get());
  }
  return fetch;
}

// TSA exemption: resolves latches acquired by StartFetch and performs the
// X→S downgrade with bare unlock/lock pairs — cross-function holds TSA
// cannot follow; lockdep sees every transition.
Result<PageHandle> BufferPool::Await(PendingFetch fetch)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    if (!fetch.pending()) {
      return fetch.issue_status_.ok()
                 ? Status::InvalidArgument("await of an empty pending fetch")
                 : fetch.issue_status_;
    }
    const PageId page_id = fetch.page_id_;
    const LatchMode mode = fetch.mode_;
    const size_t frame_index = fetch.frame_index_;
    Frame& frame = frames_[frame_index];
    fetch.pool_ = nullptr;  // Resolved below; disarm the destructor.
    if (fetch.miss_) {
      Status read = disk_->Await(fetch.ticket_);
      if (!read.ok()) {
        UninstallFailedMiss(frame_index, page_id);
        return read;
      }
      if (mode == LatchMode::kShared) {
        // std::shared_mutex has no downgrade; the gap is benign — the
        // handle's read view only begins once the S latch is held.
        frame.latch.unlock();
        LatchPageShared(frame.latch);
      }
      return PageHandle(this, frame_index, frame.data.get(),
                        options_.page_size, mode);
    }
    if (mode == LatchMode::kShared) {
      LatchPageShared(frame.latch);
    } else {
      LatchPageExclusive(frame.latch);
    }
    // A failed install (disk error on the frame we were waiting for) can
    // retire the frame under us; page_id is stable while we hold the
    // latch, so re-check and retry the lookup.
    if (frame.page_id != page_id) {
      if (mode == LatchMode::kShared) {
        frame.latch.unlock_shared();
      } else {
        frame.latch.unlock();
      }
      Unpin(frame_index, mode, /*latch_already_released=*/true);
      fetch = StartFetch(page_id, mode);
      continue;
    }
    return PageHandle(this, frame_index, frame.data.get(),
                      options_.page_size, mode);
  }
}

Status BufferPool::FetchMany(std::span<const PageId> page_ids) {
  if (page_ids.empty()) return Status::OK();
  std::vector<PageId> pages(page_ids.begin(), page_ids.end());
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  obs::TraceSpan batch_span("io.batch", "pages",
                            static_cast<uint64_t>(pages.size()));
  // Issue the misses of a chunk before awaiting any. FinishPrefetch
  // releases each page (latch + pin) as soon as its read lands, so this
  // loop never blocks on a page latch while holding another — no
  // latch-order hazard regardless of what other threads hold. Chunking
  // bounds the pins a batch holds at once: in the worst case every page
  // of a chunk maps to the same stripe, so a chunk must stay well under
  // one stripe's frame share or a frontier larger than the stripe pins
  // it solid and allocation fails with every frame held by this batch.
  const size_t stripe_frames =
      std::max<size_t>(1, options_.buffer_pool_pages / stripes_.size());
  const size_t chunk = std::max<size_t>(1, stripe_frames / 2);
  std::vector<PendingFetch> pending;
  pending.reserve(std::min(chunk, pages.size()));
  Status first_error;
  for (size_t begin = 0; begin < pages.size(); begin += chunk) {
    const size_t end = std::min(begin + chunk, pages.size());
    pending.clear();
    for (size_t i = begin; i < end; ++i) {
      pending.push_back(StartFetch(pages[i], LatchMode::kShared));
    }
    for (PendingFetch& fetch : pending) {
      Status finished = fetch.pending() ? FinishPrefetch(fetch)
                                        : fetch.issue_status();
      // Prefetch is advisory warming: when concurrent pin pressure
      // leaves no frame for a miss, skip the page — the caller's later
      // read fetches it through the blocking path one page at a time.
      if (finished.IsNoSpace()) continue;
      if (!finished.ok() && first_error.ok()) first_error = finished;
    }
  }
  return first_error;
}

// TSA exemption: releases the frame latch StartFetch left held.
Status BufferPool::FinishPrefetch(PendingFetch& fetch)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  if (fetch.pool_ == nullptr) return fetch.issue_status_;
  const size_t frame_index = fetch.frame_index_;
  const PageId page_id = fetch.page_id_;
  const bool miss = fetch.miss_;
  const LatchMode mode = fetch.mode_;
  fetch.pool_ = nullptr;
  if (!miss) {
    // Hit: never latched — just drop the pin.
    Unpin(frame_index, mode, /*latch_already_released=*/true);
    return Status::OK();
  }
  Status read = disk_->Await(fetch.ticket_);
  if (!read.ok()) {
    UninstallFailedMiss(frame_index, page_id);
    return read;
  }
  frames_[frame_index].latch.unlock();
  Unpin(frame_index, LatchMode::kExclusive,
        /*latch_already_released=*/true);
  return Status::OK();
}

// TSA exemption: releases the frame latch its caller's StartFetch left
// held.
void BufferPool::UninstallFailedMiss(size_t frame_index, PageId page_id)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  Stripe& stripe = stripe_of(page_id);
  Frame& frame = frames_[frame_index];
  {
    MutexLock lock(stripe.mu);
    stripe.page_table.erase(page_id);
    stripe.lru.erase(frame.lru_pos);
    frame.page_id = kInvalidPageId;
    frame.referenced = false;
    stripe.free_frames.push_back(frame_index);
  }
  frame.latch.unlock();
  Unpin(frame_index, LatchMode::kExclusive,
        /*latch_already_released=*/true);
}

// TSA exemption: returns holding the new frame's X latch (released by the
// PageHandle), a cross-function hold TSA cannot follow.
Result<PageHandle> BufferPool::NewPage(PageId* out_page_id)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  MaybeWaitForQuiesce();
  const PageId page_id = disk_->AllocatePage();
  if (out_page_id != nullptr) *out_page_id = page_id;
  Stripe& stripe = stripe_of(page_id);
  LatchPageExclusive(stripe.mu);
  std::unique_lock<Mutex> lock(stripe.mu, std::adopt_lock);
  auto claimed = ClaimFrame(stripe);
  if (!claimed.ok()) return claimed.status();
  const size_t frame_index = claimed.value();
  Frame& frame = frames_[frame_index];
  if (frame.data == nullptr) {
    frame.data = std::make_unique<uint8_t[]>(options_.page_size);
  }
  std::memset(frame.data.get(), 0, options_.page_size);
  Page(frame.data.get(), options_.page_size).Init(page_id);
  frame.page_id = page_id;
  frame.latch.SetLockdepKey(page_id);
  frame.dirty = true;
  frame.referenced = true;
  frame.pin_count.fetch_add(1, std::memory_order_relaxed);
  total_pins_.fetch_add(1, std::memory_order_acq_rel);
  ++tls_pin_depth;
  stripe.page_table[page_id] = frame_index;
  stripe.lru.push_front(frame_index);
  frame.lru_pos = stripe.lru.begin();
  return PageHandle(this, frame_index, frame.data.get(), options_.page_size,
                    LatchMode::kExclusive);
}

// TSA exemption: frame latches are acquired and released across loop
// arms with early-error returns; lockdep tracks each pair.
Status BufferPool::FlushAll() OCB_NO_THREAD_SAFETY_ANALYSIS {
  // Settle the background write-back queue first: FlushAll is a
  // durability-ordering point (snapshot save, checkpoint, cold restart)
  // and must leave the DiskSim holding every image the pool has retired.
  Status drained = DrainWritebacks();
  if (!drained.ok()) return drained;
  for (auto& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    std::vector<std::pair<size_t, PageId>> resident;
    {
      MutexLock lock(stripe.mu);
      resident.reserve(stripe.page_table.size());
      for (const auto& [pid, idx] : stripe.page_table) {
        resident.push_back({idx, pid});
      }
    }
    for (const auto& [frame_index, pid] : resident) {
      Frame& frame = frames_[frame_index];
      LatchPageExclusive(frame.latch);
      // Holding the latch pins down page_id and dirty; re-check that the
      // frame still caches the page we collected (it may have been evicted
      // and reused between the two loops).
      if (frame.page_id == pid && frame.dirty) {
        Status written = disk_->WritePage(pid, frame.data.get());
        if (!written.ok()) {
          frame.latch.unlock();
          return written;
        }
        stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
        frame.dirty = false;
      }
      frame.latch.unlock();
    }
  }
  return Status::OK();
}

// TSA exemption: victim latches are try-locked here and released after
// EvictFrame; the conditional hold is invisible to the analysis.
Status BufferPool::InvalidateAll() OCB_NO_THREAD_SAFETY_ANALYSIS {
  for (auto& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    MutexLock lock(stripe.mu);
    std::vector<size_t> resident;
    resident.reserve(stripe.page_table.size());
    for (const auto& [pid, idx] : stripe.page_table) {
      resident.push_back(idx);
    }
    // Deterministic order (the seed walked frames in index order).
    std::sort(resident.begin(), resident.end());
    for (size_t frame_index : resident) {
      Frame& frame = frames_[frame_index];
      if (frame.pin_count.load(std::memory_order_relaxed) > 0 ||
          !frame.latch.try_lock()) {
        return Status::Aborted("cannot invalidate pinned frame");
      }
      Status evicted = EvictFrame(stripe, frame_index);
      frame.latch.unlock();
      if (!evicted.ok()) return evicted;
      stripe.free_frames.push_back(frame_index);
    }
  }
  // Evicting dirty frames above may have queued background write-backs;
  // leave the disk settled (benchmarks read raw pages right after).
  return DrainWritebacks();
}

size_t BufferPool::pinned_frames() const {
  // Lock-free on purpose: callers often hold page handles (frame
  // latches), and a stats probe has no business blocking them on every
  // stripe mutex. Pin counts are atomic, and a pinned frame is resident
  // by invariant, so scanning the fixed frame table needs no mutex.
  size_t pinned = 0;
  for (size_t i = 0; i < frame_count_; ++i) {
    if (frames_[i].pin_count.load(std::memory_order_relaxed) > 0) ++pinned;
  }
  return pinned;
}

// TSA exemption: returns holding the claimed frame's X latch (try-locked
// victim-by-victim); the matching release is the caller's.
Result<size_t> BufferPool::ClaimFrame(Stripe& stripe)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  // Free frames usually have neither pins nor latch holders — but a
  // failed install (FetchPage's disk-error cleanup) free-lists a frame
  // while late waiters of the failed page still pin it for their page_id
  // re-check. Skip such frames (their pins drain on their own) instead of
  // handing out a frame someone else is latched on.
  for (size_t i = stripe.free_frames.size(); i > 0; --i) {
    const size_t frame_index = stripe.free_frames[i - 1];
    Frame& frame = frames_[frame_index];
    if (frame.pin_count.load(std::memory_order_relaxed) != 0 ||
        !frame.latch.try_lock()) {
      continue;
    }
    stripe.free_frames.erase(stripe.free_frames.begin() +
                             static_cast<ptrdiff_t>(i - 1));
    return frame_index;
  }
  switch (options_.replacement_policy) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo: {
      // LRU: the back of the list is least recently used. FIFO: TouchLru is
      // a no-op on hits, so the back is the oldest resident page. Pinned or
      // latched frames are skipped (try_lock never blocks while we hold the
      // stripe mutex — a latch holder may be waiting for it).
      for (auto it = stripe.lru.rbegin(); it != stripe.lru.rend(); ++it) {
        Frame& frame = frames_[*it];
        if (frame.pin_count.load(std::memory_order_relaxed) != 0) continue;
        if (!frame.latch.try_lock()) continue;
        const size_t victim = *it;
        Status evicted = EvictFrame(stripe, victim);
        if (!evicted.ok()) {
          frame.latch.unlock();
          return evicted;
        }
        return victim;
      }
      break;
    }
    case ReplacementPolicy::kClock: {
      const size_t owned = stripe.owned_frames.size();
      for (size_t sweep = 0; sweep < 2 * owned; ++sweep) {
        const size_t frame_index = stripe.owned_frames[stripe.clock_pos];
        stripe.clock_pos = (stripe.clock_pos + 1) % owned;
        Frame& frame = frames_[frame_index];
        if (frame.page_id == kInvalidPageId) continue;
        if (frame.pin_count.load(std::memory_order_relaxed) != 0) continue;
        if (frame.referenced) {
          frame.referenced = false;
          continue;
        }
        if (!frame.latch.try_lock()) continue;
        Status evicted = EvictFrame(stripe, frame_index);
        if (!evicted.ok()) {
          frame.latch.unlock();
          return evicted;
        }
        return frame_index;
      }
      break;
    }
  }
  return Status::NoSpace("all buffer-pool frames of the stripe are pinned");
}

Status BufferPool::EvictFrame(Stripe& stripe, size_t frame_index) {
  // Requires stripe.mu and the frame latch. Inline mode: the victim's
  // writeback completes under the stripe mutex, so a concurrent re-fetch
  // of the page (same stripe by construction) serializes behind the
  // finished write. Async mode: the dirty image is donated to the
  // write-back queue and the frame is reusable immediately; the re-fetch
  // serializes through SettleWriteback instead.
  Frame& frame = frames_[frame_index];
  if (frame.dirty) {
    if (disk_->async_enabled()) {
      // Any failure must leave the frame resident (ClaimFrame's error
      // contract), so both awaits happen before the frame is touched:
      // the page's previous queued write (per-page order), then the
      // throttle when the stripe's queue is at depth.
      Status settled = SettleWriteback(stripe, frame.page_id);
      if (!settled.ok()) return settled;
      while (stripe.writebacks.size() >= options_.writeback_queue_depth &&
             !stripe.writebacks.empty()) {
        auto oldest = stripe.writebacks.begin();
        IoTicket ticket = std::move(oldest->second);
        stripe.writebacks.erase(oldest);
        writeback_pending_.fetch_sub(1, std::memory_order_relaxed);
        Status retired = disk_->Await(ticket);
        if (!retired.ok()) return retired;
      }
      IoTicket ticket =
          disk_->StartWrite(frame.page_id, std::move(frame.data));
      stripe.writebacks.emplace(frame.page_id, std::move(ticket));
      const uint64_t depth =
          writeback_pending_.fetch_add(1, std::memory_order_relaxed) + 1;
      uint64_t peak = writeback_peak_.load(std::memory_order_relaxed);
      while (peak < depth &&
             !writeback_peak_.compare_exchange_weak(
                 peak, depth, std::memory_order_relaxed)) {
      }
    } else {
      Status written = disk_->WritePage(frame.page_id, frame.data.get());
      if (!written.ok()) return written;
    }
    stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  stripe.page_table.erase(frame.page_id);
  stripe.lru.erase(frame.lru_pos);
  frame.page_id = kInvalidPageId;
  frame.dirty = false;
  frame.referenced = false;
  return Status::OK();
}

Status BufferPool::SettleWriteback(Stripe& stripe, PageId page_id) {
  auto it = stripe.writebacks.find(page_id);
  if (it == stripe.writebacks.end()) return Status::OK();
  IoTicket ticket = std::move(it->second);
  stripe.writebacks.erase(it);
  writeback_pending_.fetch_sub(1, std::memory_order_relaxed);
  return disk_->Await(ticket);
}

Status BufferPool::DrainWritebacks() {
  Status first_error;
  for (auto& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    std::vector<IoTicket> tickets;
    {
      MutexLock lock(stripe.mu);
      tickets.reserve(stripe.writebacks.size());
      for (auto& [pid, ticket] : stripe.writebacks) {
        tickets.push_back(std::move(ticket));
      }
      writeback_pending_.fetch_sub(stripe.writebacks.size(),
                                   std::memory_order_relaxed);
      stripe.writebacks.clear();
    }
    for (IoTicket& ticket : tickets) {
      Status retired = disk_->Await(ticket);
      if (!retired.ok() && first_error.ok()) first_error = retired;
    }
  }
  return first_error;
}

// TSA exemption: conditionally releases a latch acquired by another
// function (the fetch path), selected by a runtime mode flag.
void BufferPool::Unpin(size_t frame_index, LatchMode mode,
                       bool latch_already_released)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  Frame& frame = frames_[frame_index];
  if (!latch_already_released) {
    if (mode == LatchMode::kShared) {
      frame.latch.unlock_shared();
    } else {
      frame.latch.unlock();
    }
  }
  assert(frame.pin_count.load(std::memory_order_relaxed) > 0);
  frame.pin_count.fetch_sub(1, std::memory_order_relaxed);
  --tls_pin_depth;
  // seq_cst pairs with BeginQuiesce (see there): the last unpinner must
  // either see quiescing_ and notify, or the quiescer must see zero pins.
  if (total_pins_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      quiescing_.load(std::memory_order_seq_cst)) {
    MutexLock lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

void BufferPool::TouchLru(Stripe& stripe, size_t frame_index) {
  if (options_.replacement_policy == ReplacementPolicy::kFifo) return;
  Frame& frame = frames_[frame_index];
  stripe.lru.erase(frame.lru_pos);
  stripe.lru.push_front(frame_index);
  frame.lru_pos = stripe.lru.begin();
}

}  // namespace ocb
