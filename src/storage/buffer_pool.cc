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
// preserved for small-pool experiments and their tests. When the
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
  // Every frame starts free, so free_frames holds the stripe's frame count.
  for (auto& stripe : stripes_) {
    stripe->spare_entries.reserve(stripe->free_frames.size());
  }
  // Resolve the latch-wait instruments now, with no lock held. The first
  // lookup takes the metrics-registry mutex, which ranks above every
  // engine mutex (Snapshot() runs gauge callbacks under it) — so a lazy
  // resolution from a latch callsite while this thread already holds a
  // frame latch (a two-page operation fetching its second page) would
  // invert the hierarchy.
  latch_internal::PageWaitHistogram();
  latch_internal::FacadeWaitHistogram();
}

// TSA exemption: the cv wait unlocks and relocks quiesce_mu_ mid-function,
// a flow the intraprocedural analysis cannot follow; lockdep still sees
// every transition.
void BufferPool::AdmitPin() OCB_NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    // Count first, then check — both seq_cst, pairing with BeginQuiesce's
    // store-quiescing_-then-read-total_pins_: either the quiescer sees
    // this pin and waits for it, or this thread sees the closed gate.
    total_pins_.fetch_add(1, std::memory_order_seq_cst);
    if (tls_pin_depth++ > 0) return;  // Mid-operation: allowed to finish.
    if (!quiescing_.load(std::memory_order_seq_cst)) return;
    std::unique_lock<Mutex> lock(quiesce_mu_);
    // Depth 0: the gate reopened since the check, and a new quiescer
    // closes it only under this mutex and then counts our pin.
    if (quiesce_depth_ == 0 ||
        quiesce_owner_ == std::this_thread::get_id()) {
      return;
    }
    // Back out: the quiescer may be waiting for exactly this count.
    --tls_pin_depth;
    if (total_pins_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      quiesce_cv_.notify_all();
    }
    quiesce_cv_.wait(lock, [&] { return quiesce_depth_ == 0; });
  }
}

void BufferPool::DropPinCount() {
  --tls_pin_depth;
  // seq_cst pairs with BeginQuiesce (see there): the last unpinner must
  // either see quiescing_ and notify, or the quiescer must see zero pins.
  if (total_pins_.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
      quiescing_.load(std::memory_order_seq_cst)) {
    MutexLock lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
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
  // Sequentially consistent with both sides of the pin count. Unpin
  // decrements total_pins_ then reads quiescing_: with weaker orders both
  // sides may read the old value (store-buffer reordering on a multi-core
  // host), the last unpinner skips the notify, and this wait sleeps
  // forever with the gate closed. AdmitPin increments total_pins_ then
  // reads quiescing_: with weaker orders a fetch could pin after this
  // thread saw zero pins.
  quiescing_.store(true, std::memory_order_seq_cst);
  // Drain: in-flight operations keep their gate exemption via tls_pin_depth
  // and finish; nobody else can start pinning.
  quiesce_cv_.wait(lock, [&] {
    return total_pins_.load(std::memory_order_seq_cst) == 0;
  });
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

// TSA exemption: a miss returns holding the claimed frame's latch (taken
// under the stripe mutex, downgraded to kShared with a bare unlock/lock
// pair), and a hit latches in a runtime-selected mode — holds released by
// the PageHandle, which TSA cannot follow; lockdep sees every transition.
Result<PageHandle> BufferPool::FetchPage(PageId page_id, LatchMode mode)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    AdmitPin();
    Stripe& stripe = stripe_of(page_id);
    size_t frame_index = 0;
    bool miss = false;
    {
      LatchPageExclusive(stripe.mu);
      std::unique_lock<Mutex> lock(stripe.mu, std::adopt_lock);
      auto it = stripe.page_table.find(page_id);
      if (it != stripe.page_table.end()) {
        stats_.hits.fetch_add(1, std::memory_order_relaxed);
        frame_index = it->second;
        frames_[frame_index].pin_count.fetch_add(1, std::memory_order_relaxed);
        TouchLru(stripe, frame_index);
      } else {
        stats_.misses.fetch_add(1, std::memory_order_relaxed);
        auto claimed = ClaimFrame(stripe);
        if (!claimed.ok()) {
          lock.unlock();
          DropPinCount();
          return claimed.status();
        }
        frame_index = claimed.value();
        Frame& frame = frames_[frame_index];
        if (frame.data == nullptr) {
          frame.data = std::make_unique<uint8_t[]>(options_.page_size);
        }
        frame.page_id = page_id;
        frame.latch.SetLockdepKey(page_id);
        frame.dirty = false;
        frame.pin_count.fetch_add(1, std::memory_order_relaxed);
        InstallEntry(stripe, page_id, frame_index);
        miss = true;
      }
    }
    Frame& frame = frames_[frame_index];
    if (miss) {
      // The read runs outside the stripe mutex, under the frame's X latch
      // (held since ClaimFrame): concurrent fetchers of this page pin the
      // frame and block on the latch until the page is in, while the rest
      // of the stripe stays available.
      Status read;
      {
        obs::TraceSpan io_span("io.miss", "page", page_id);
        read = disk_->ReadPage(page_id, frame.data.get());
      }
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
    // A failed read (disk error on the miss we were waiting for) retires
    // the frame under us; page_id is stable while we hold the latch, so
    // re-check and retry the lookup.
    if (frame.page_id != page_id) {
      if (mode == LatchMode::kShared) {
        frame.latch.unlock_shared();
      } else {
        frame.latch.unlock();
      }
      Unpin(frame_index, mode, /*latch_already_released=*/true);
      continue;
    }
    return PageHandle(this, frame_index, frame.data.get(),
                      options_.page_size, mode);
  }
}

// TSA exemption: releases the miss frame latch FetchPage left held.
void BufferPool::UninstallFailedMiss(size_t frame_index, PageId page_id)
    OCB_NO_THREAD_SAFETY_ANALYSIS {
  Stripe& stripe = stripe_of(page_id);
  Frame& frame = frames_[frame_index];
  {
    MutexLock lock(stripe.mu);
    RetireEntry(stripe, frame_index);
    frame.page_id = kInvalidPageId;
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
  AdmitPin();
  const PageId page_id = disk_->AllocatePage();
  if (out_page_id != nullptr) *out_page_id = page_id;
  Stripe& stripe = stripe_of(page_id);
  LatchPageExclusive(stripe.mu);
  std::unique_lock<Mutex> lock(stripe.mu, std::adopt_lock);
  auto claimed = ClaimFrame(stripe);
  if (!claimed.ok()) {
    lock.unlock();
    DropPinCount();
    return claimed.status();
  }
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
  frame.pin_count.fetch_add(1, std::memory_order_relaxed);
  InstallEntry(stripe, page_id, frame_index);
  return PageHandle(this, frame_index, frame.data.get(), options_.page_size,
                    LatchMode::kExclusive);
}

// TSA exemption: frame latches are acquired and released across loop
// arms with early-error returns; lockdep tracks each pair.
Status BufferPool::FlushAll() OCB_NO_THREAD_SAFETY_ANALYSIS {
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
  return Status::OK();
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
  // The back of the list is least recently used. Pinned or latched frames
  // are skipped (try_lock never blocks while we hold the stripe mutex — a
  // latch holder may be waiting for it).
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
  return Status::NoSpace("all buffer-pool frames of the stripe are pinned");
}

Status BufferPool::EvictFrame(Stripe& stripe, size_t frame_index) {
  // Requires stripe.mu and the frame latch. The victim's writeback
  // completes under the stripe mutex, so a concurrent re-fetch of the page
  // (same stripe by construction) serializes behind the finished write.
  Frame& frame = frames_[frame_index];
  if (frame.dirty) {
    Status written = disk_->WritePage(frame.page_id, frame.data.get());
    if (!written.ok()) return written;
    stats_.dirty_writebacks.fetch_add(1, std::memory_order_relaxed);
  }
  stats_.evictions.fetch_add(1, std::memory_order_relaxed);
  RetireEntry(stripe, frame_index);
  frame.page_id = kInvalidPageId;
  frame.dirty = false;
  return Status::OK();
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
  DropPinCount();
}

void BufferPool::TouchLru(Stripe& stripe, size_t frame_index) {
  // splice relinks the node in place: lru_pos stays valid.
  stripe.lru.splice(stripe.lru.begin(), stripe.lru,
                    frames_[frame_index].lru_pos);
}

void BufferPool::InstallEntry(Stripe& stripe, PageId page_id,
                              size_t frame_index) {
  if (stripe.spare_entries.empty()) {
    stripe.page_table.emplace(page_id, frame_index);
  } else {
    Stripe::PageTable::node_type entry =
        std::move(stripe.spare_entries.back());
    stripe.spare_entries.pop_back();
    entry.key() = page_id;
    entry.mapped() = frame_index;
    stripe.page_table.insert(std::move(entry));
  }
  if (stripe.spare_lru.empty()) {
    stripe.lru.push_front(frame_index);
  } else {
    stripe.spare_lru.front() = frame_index;
    stripe.lru.splice(stripe.lru.begin(), stripe.spare_lru,
                      stripe.spare_lru.begin());
  }
  frames_[frame_index].lru_pos = stripe.lru.begin();
}

void BufferPool::RetireEntry(Stripe& stripe, size_t frame_index) {
  Frame& frame = frames_[frame_index];
  Stripe::PageTable::node_type entry =
      stripe.page_table.extract(frame.page_id);
  if (!entry.empty()) stripe.spare_entries.push_back(std::move(entry));
  stripe.spare_lru.splice(stripe.spare_lru.end(), stripe.lru, frame.lru_pos);
}

}  // namespace ocb
