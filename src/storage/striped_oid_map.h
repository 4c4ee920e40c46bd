/// \file striped_oid_map.h
/// \brief Striped Oid → ObjectLocation table for the object store.
///
/// The object table is on every physical access path (each Read/Update/
/// Delete starts by resolving its Oid), so under CLIENTN clients a single
/// table mutex would re-create the facade convoy the per-page-latching
/// refactor removes. The table is therefore striped: N stripes, each a
/// dense vector behind its own mutex. Operations on different stripes
/// never contend; operations on one stripe hold its mutex only for the
/// few vector operations involved.
///
/// Slot layout: a store allocates its oids from the progression
/// first_oid + k * oid_stride and never reuses one, so the table indexes
/// an entry by k, the oid's *slot*, instead of hashing the oid. Slot s
/// lives in stripe s % N at index s / N; an absent entry (never created,
/// or deleted) has page_id == kInvalidPageId. Consecutive slots fall in
/// different stripes, so creators of fresh oids spread over the stripes,
/// and slot order is oid order, so the live oids come out ascending from
/// one pass with no sort (the pass holds every stripe mutex, taken in
/// ascending stripe order). A stripe grows under its own mutex, doubling
/// its vector to reach a new index. Each allocated slot costs
/// sizeof(ObjectLocation) = 8 bytes; a deleted slot keeps its bytes,
/// because its oid is never reused. An oid off the progression
/// (kInvalidOid, another shard's oid) or past kMaxSlots has no slot: the
/// table reports it absent and Put refuses it (see Holds).
///
/// Lock-ordering rule: stripe mutexes are *leaf-adjacent* — a caller may
/// take one while holding page latches (the relocation paths publish the
/// new location while both page latches are held), but must never acquire
/// a page latch, the catalog latch, or a lock-manager mutex while holding
/// a stripe mutex.
///
/// Revalidation contract (the reason optimistic resolution is sound):
/// a Lookup NOT performed under the target page's latch returns a
/// location that may be stale by the time the caller latches anything —
/// a concurrent Update/Relocate can move the record. Readers therefore
/// run lookup → latch the page → Lookup AGAIN under the latch and
/// compare: because every relocation publishes the new table entry (Put)
/// while holding BOTH page latches (source and destination, ascending
/// page-id order), an entry revalidated under the page's latch proves
/// the record is on that page right now — the mover could not have
/// published-and-moved while the reader held the latch. A failed
/// revalidation just retries the loop (bounded; see object_store.cc's
/// kMaxResolveAttempts). Erase-then-miss is equally final: a vanished
/// entry under latch means the object is deleted, not moving.

#ifndef OCB_STORAGE_STRIPED_OID_MAP_H_
#define OCB_STORAGE_STRIPED_OID_MAP_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/types.h"
#include "util/sync.h"

namespace ocb {

/// \brief Striped dense table from Oid to physical location.
class StripedOidMap {
 public:
  /// Slots one table can hold, which bounds its memory: 8 bytes a slot,
  /// 512 MiB (up to twice that reserved while a stripe's capacity doubles).
  static constexpr uint64_t kMaxSlots = uint64_t{1} << 26;

  /// \param first_oid / \p oid_stride The owning store's allocation
  ///        progression (see ObjectStore); both at least 1.
  StripedOidMap(size_t stripes, Oid first_oid, uint64_t oid_stride)
      : stripes_(std::max<size_t>(stripes, 1)),
        first_oid_(std::max<Oid>(first_oid, 1)),
        oid_stride_(std::max<uint64_t>(oid_stride, 1)) {
    shards_.reserve(stripes_);
    for (size_t i = 0; i < stripes_; ++i) {
      shards_.push_back(std::make_unique<Shard>(i));
    }
  }

  StripedOidMap(const StripedOidMap&) = delete;
  StripedOidMap& operator=(const StripedOidMap&) = delete;

  /// True if \p oid has a slot: it lies on the progression and its slot
  /// is below kMaxSlots. These are the only oids Put accepts.
  bool Holds(Oid oid) const {
    Position pos;
    return PositionOf(oid, &pos);
  }

  /// Copies the location of \p oid into \p out; false if absent.
  bool Lookup(Oid oid, ObjectLocation* out) const {
    Position pos;
    if (!PositionOf(oid, &pos)) return false;
    Shard& shard = *shards_[pos.stripe];
    MutexLock lock(shard.mu);
    if (pos.index >= shard.slots.size()) return false;
    const ObjectLocation& entry = shard.slots[pos.index];
    if (!entry.valid()) return false;
    *out = entry;
    return true;
  }

  bool Contains(Oid oid) const {
    ObjectLocation loc;
    return Lookup(oid, &loc);
  }

  /// Inserts or overwrites the entry. False, storing nothing, if the
  /// table cannot hold \p oid (see Holds).
  bool Put(Oid oid, ObjectLocation loc) {
    Position pos;
    if (!PositionOf(oid, &pos)) return false;
    Shard& shard = *shards_[pos.stripe];
    MutexLock lock(shard.mu);
    ObjectLocation& entry = shard.Reach(pos.index);
    if (!entry.valid()) size_.fetch_add(1, std::memory_order_relaxed);
    entry = loc;
    return true;
  }

  /// Inserts only if absent; false when the oid was already live or the
  /// table cannot hold it.
  bool PutIfAbsent(Oid oid, ObjectLocation loc) {
    Position pos;
    if (!PositionOf(oid, &pos)) return false;
    Shard& shard = *shards_[pos.stripe];
    MutexLock lock(shard.mu);
    ObjectLocation& entry = shard.Reach(pos.index);
    if (entry.valid()) return false;
    entry = loc;
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Removes the entry; false if absent.
  bool Erase(Oid oid) {
    Position pos;
    if (!PositionOf(oid, &pos)) return false;
    Shard& shard = *shards_[pos.stripe];
    MutexLock lock(shard.mu);
    if (pos.index >= shard.slots.size()) return false;
    ObjectLocation& entry = shard.slots[pos.index];
    if (!entry.valid()) return false;
    entry = ObjectLocation{};
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  uint64_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Bytes the stripes' vectors hold: 8 per allocated slot, live or not.
  uint64_t bytes() const {
    uint64_t slots = 0;
    for (const auto& shard_ptr : shards_) {
      MutexLock lock(shard_ptr->mu);
      slots += shard_ptr->slots.capacity();
    }
    return slots * sizeof(ObjectLocation);
  }

  /// Copy of the whole table (callers quiesce first: the copy holds every
  /// stripe mutex while it builds the map).
  std::unordered_map<Oid, ObjectLocation> Snapshot() const {
    std::unordered_map<Oid, ObjectLocation> out;
    out.reserve(static_cast<size_t>(size()));
    ForEach([&](Oid oid, const ObjectLocation& loc) { out.emplace(oid, loc); });
    return out;
  }

  /// Replaces the whole table (snapshot restore; quiesced). False if an
  /// entry is one the table cannot hold; the others are stored.
  bool Reset(std::unordered_map<Oid, ObjectLocation> table) {
    for (const auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      MutexLock lock(shard.mu);
      shard.slots = std::vector<ObjectLocation>();
    }
    size_.store(0, std::memory_order_relaxed);
    bool all_held = true;
    for (const auto& [oid, loc] : table) {
      if (!Put(oid, loc)) all_held = false;
    }
    return all_held;
  }

  /// Invokes \p fn(oid, location) for every entry in ascending oid order,
  /// in one pass over the slots. Every stripe mutex is held for the pass
  /// (taken in ascending stripe order, as store.oidmap requires), so \p fn
  /// must not call back into the table. TSA exemption: the analysis cannot
  /// follow a run-time number of held mutexes; lockdep checks the order.
  template <typename Fn>
  void ForEach(Fn&& fn) const OCB_NO_THREAD_SAFETY_ANALYSIS {
    std::vector<std::unique_lock<Mutex>> held;
    std::vector<std::span<const ObjectLocation>> stripes;
    held.reserve(stripes_);
    stripes.reserve(stripes_);
    size_t rows = 0;
    for (const auto& shard_ptr : shards_) {
      held.emplace_back(shard_ptr->mu);
      stripes.emplace_back(shard_ptr->slots);
      rows = std::max(rows, shard_ptr->slots.size());
    }
    Oid oid = first_oid_;
    for (size_t index = 0; index < rows; ++index) {
      for (const std::span<const ObjectLocation> stripe : stripes) {
        if (index < stripe.size() && stripe[index].valid()) {
          fn(oid, stripe[index]);
        }
        oid += oid_stride_;
      }
    }
  }

 private:
  struct Shard {
    explicit Shard(size_t index) : mu(lockdep::kOidTableClass, index) {}

    /// The entry at \p index, growing the vector to reach it (its
    /// capacity doubles, so growth is amortized constant per slot).
    ObjectLocation& Reach(size_t index) OCB_REQUIRES(mu) {
      if (index >= slots.size()) {
        if (index >= slots.capacity()) {
          slots.reserve(std::max(index + 1, 2 * slots.capacity()));
        }
        slots.resize(index + 1);
      }
      return slots[index];
    }

    mutable Mutex mu;
    std::vector<ObjectLocation> slots OCB_GUARDED_BY(mu);
  };

  struct Position {
    size_t stripe = 0;
    size_t index = 0;
  };

  /// Where \p oid's entry lives; false if the table cannot hold it.
  bool PositionOf(Oid oid, Position* pos) const {
    if (oid < first_oid_) return false;
    const uint64_t offset = oid - first_oid_;
    const uint64_t slot = offset / oid_stride_;
    if (slot * oid_stride_ != offset || slot >= kMaxSlots) return false;
    pos->stripe = static_cast<size_t>(slot % stripes_);
    pos->index = static_cast<size_t>(slot / stripes_);
    return true;
  }

  const size_t stripes_;
  const Oid first_oid_;
  const uint64_t oid_stride_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> size_{0};
};

}  // namespace ocb

#endif  // OCB_STORAGE_STRIPED_OID_MAP_H_
