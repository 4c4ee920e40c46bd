/// \file object_store.h
/// \brief OID-addressed variable-length record store over the buffer pool.
///
/// The object store is the substrate equivalent of the Texas persistent
/// store: objects are byte strings addressed by a stable Oid through an
/// object table (Oid → page/slot). Physical placement is fully decoupled
/// from identity, which is what allows a clustering policy to *relocate*
/// objects (or rewrite the whole database in a chosen order) without
/// touching any inter-object reference.
///
/// Latching contract (who may call what under which latch):
///
///   * The store is thread-safe. Every page access goes through latched
///     PageHandles: reads latch the object's page kShared, mutations latch
///     it kExclusive, so readers of one page proceed in parallel and never
///     observe a torn record. No caller-side serialization is required —
///     the Database facade latch no longer covers physical access.
///   * The object table is striped and dense: each stripe a vector
///     indexed by the oid's slot in the store's allocation progression
///     (see striped_oid_map.h). Resolution is optimistic: look up the
///     location, latch the page, re-validate the entry under the latch —
///     a concurrent relocation publishes the new location while holding
///     *both* page latches, so a validated entry proves the record is
///     where the table says.
///   * Insert/Update-relocation/Relocate latch source and destination
///     pages in ascending page-id order (a fresh destination page always
///     has the highest id yet, so the fresh-page path is ascending by
///     construction) — the store never deadlocks against itself.
///   * Logical isolation (who may read/write *which object* when) is the
///     caller's business: the Database's LockManager on the transactional
///     path, quiescence (BufferPool::BeginQuiesce via Database::
///     QuiesceGuard) for reorganizers. PlaceSequence/PlaceUnits/
///     RestoreTable and the table/extent snapshots taken by SaveSnapshot
///     assume a quiesced store.

#ifndef OCB_STORAGE_OBJECT_STORE_H_
#define OCB_STORAGE_OBJECT_STORE_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/free_space_map.h"
#include "storage/striped_oid_map.h"
#include "storage/types.h"
#include "util/status.h"

namespace ocb {

/// Aggregate placement statistics (atomic: placement threads update them
/// concurrently; copying yields a consistent-enough snapshot for deltas).
struct ObjectStoreStats {
  std::atomic<uint64_t> objects{0};
  std::atomic<uint64_t> data_pages{0};
  std::atomic<uint64_t> relocations{0};
  std::atomic<uint64_t> bytes_stored{0};

  ObjectStoreStats() = default;
  ObjectStoreStats(const ObjectStoreStats& other)
      : objects(other.objects.load(std::memory_order_relaxed)),
        data_pages(other.data_pages.load(std::memory_order_relaxed)),
        relocations(other.relocations.load(std::memory_order_relaxed)),
        bytes_stored(other.bytes_stored.load(std::memory_order_relaxed)) {}
  ObjectStoreStats& operator=(const ObjectStoreStats& other) {
    objects.store(other.objects.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    data_pages.store(other.data_pages.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    relocations.store(other.relocations.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    bytes_stored.store(other.bytes_stored.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }
};

/// \brief Variable-length object heap with stable logical ids.
class ObjectStore {
 public:
  /// \param first_oid / \p oid_stride Arithmetic progression the store
  ///        allocates oids from (defaults: the dense sequence 1, 2, 3…).
  ///        A ShardedDatabase gives shard k of N the progression
  ///        (k + 1, N) so ownership is recomputable from the oid alone —
  ///        see sharding/shard_router.h.
  explicit ObjectStore(BufferPool* pool, Oid first_oid = 1,
                       uint64_t oid_stride = 1);

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Stores \p bytes as a new object and returns its Oid (the next value
  /// of the store's allocation progression). InvalidArgument once the
  /// progression runs past the object table's slot cap.
  ///
  /// \param placement_hint If valid, try to co-locate the new object on the
  ///        same page as the hinted object (clustering policies use this).
  Result<Oid> Insert(std::span<const uint8_t> bytes,
                     Oid placement_hint = kInvalidOid);

  /// Draws the next oid of the allocation progression without storing an
  /// object; InsertWithOid stores it later. A transactional create locks
  /// the oid in between, so no other thread can find the object before
  /// its creator holds it.
  Oid AllocateOid() {
    return next_oid_.fetch_add(oid_stride_, std::memory_order_relaxed);
  }

  /// Registers \p oid — drawn by AllocateOid, or previously allocated and
  /// since deleted — with the given bytes. Used by a transactional create
  /// and by transaction rollback to restore the pre-image of an object the
  /// aborting transaction deleted. AlreadyExists if \p oid is live;
  /// InvalidArgument if the store cannot hold it (see CanHold).
  Status InsertWithOid(Oid oid, std::span<const uint8_t> bytes);

  /// True if \p oid lies on the store's allocation progression with a slot
  /// below StripedOidMap::kMaxSlots: the only oids the object table can
  /// hold. kInvalidOid and another shard's oids never qualify.
  bool CanHold(Oid oid) const { return table_.Holds(oid); }

  /// Copies the object's bytes into \p out (under the page's shared
  /// latch, so the copy is never torn by a concurrent writer). The page is
  /// fetched on demand: a buffer-pool miss costs exactly one disk read.
  Status Read(Oid oid, std::vector<uint8_t>* out);

  /// Replaces the object's bytes (may relocate it if it no longer fits).
  Status Update(Oid oid, std::span<const uint8_t> bytes);

  /// Deletes the object. Its Oid is never reused.
  Status Delete(Oid oid);

  /// True if \p oid currently maps to a live object.
  bool Contains(Oid oid) const;

  /// Physical location (page/slot) of an object; NotFound if deleted.
  Result<ObjectLocation> Locate(Oid oid) const;

  /// Moves an object next to \p neighbor (same page if it fits, else a
  /// fresh page). Used by incremental clustering policies.
  Status Relocate(Oid oid, Oid neighbor);

  /// Rewrites the given objects, in order, onto a fresh sequence of pages;
  /// objects not listed keep their location. This is the primitive behind
  /// "physical clustering organization" (DSTC phase 5): the page images the
  /// sequence produces are exactly the clustering units laid end to end.
  ///
  /// Old page space is reclaimed (erased); I/O for the rewrite is charged
  /// to whatever scope the caller set on the DiskSim. Callers quiesce the
  /// store first (Database::QuiesceGuard).
  Status PlaceSequence(const std::vector<Oid>& sequence);

  /// Like PlaceSequence, but starts a fresh page whenever the next *unit*
  /// does not fit entirely in the current page's remaining space, so a
  /// clustering unit never straddles a page boundary (a unit larger than
  /// one page still spills). This is how clustering units are "applied to
  /// consider a new object placement on disk" (DSTC phase 5).
  Status PlaceUnits(const std::vector<std::vector<Oid>>& units);

  /// Largest object the store accepts.
  size_t max_object_size() const {
    return Page::MaxRecordSize(pool_->disk()->page_size());
  }

  /// Oids of all live objects, ascending (one pass over the table's
  /// slots; no sort).
  std::vector<Oid> LiveOids() const;

  /// Oids of all live objects in physical order (page, then slot) —
  /// reorganizers use this to preserve residual locality when compacting
  /// objects that no clustering unit claimed.
  std::vector<Oid> LiveOidsInPhysicalOrder() const;

  /// Upper bound on the oids allocated so far: every live oid is
  /// <= max_oid(), and snapshot save/load round-trips max_oid() + 1 as
  /// the restored counter. (With oid_stride == 1 this is exactly the
  /// highest Oid allocated, 0 if none.)
  Oid max_oid() const {
    return next_oid_.load(std::memory_order_relaxed) - 1;
  }

  const ObjectStoreStats& stats() const { return stats_; }

  /// Bytes the object table's slots take (8 per allocated slot).
  uint64_t table_bytes() const { return table_.bytes(); }

  BufferPool* buffer_pool() { return pool_; }

  // --- Snapshot support (see oodb/snapshot.h) ---

  /// Copy of the object table for serialization (callers quiesce first for
  /// a point-in-time image).
  std::unordered_map<Oid, ObjectLocation> TableSnapshot() const {
    return table_.Snapshot();
  }

  /// Restores the table and oid counter from a snapshot, then rebuilds
  /// free-space and statistics by scanning every data page. Requires the
  /// underlying disk to already hold the snapshot's page images.
  /// Corruption if the table holds an oid the store cannot (see CanHold).
  Status RestoreTable(std::unordered_map<Oid, ObjectLocation> table,
                      Oid next_oid);

 private:
  /// Inserts bytes into a page with room (hinted page, any page with space,
  /// or a fresh page) and returns the location. Self-contained: returns
  /// with no latches held.
  Result<ObjectLocation> Place(std::span<const uint8_t> bytes,
                               PageId hint_page);

  /// Moves \p oid's record (holding \p bytes as its new contents) off its
  /// current page: destination chosen via the free-space map with
  /// \p hint_page preferred, fresh page as fallback. Source and
  /// destination are latched in ascending page-id order; the table entry
  /// is re-validated under the latches and republished before either latch
  /// drops, so concurrent readers either see the old location (record
  /// still there) or the new one (record already there).
  Result<ObjectLocation> MoveRecord(Oid oid, std::span<const uint8_t> bytes,
                                    PageId hint_page);

  /// Erases the record a failed registration placed at \p loc, so no
  /// orphan record leaks.
  void Unplace(ObjectLocation loc);

  /// Erases \p oid's record (validated against the table under the page's
  /// X latch) and removes the table entry. Returns the erased record's
  /// size via \p erased_bytes when non-null.
  Status EraseRecord(Oid oid, size_t* erased_bytes);

  BufferPool* pool_;
  FreeSpaceMap free_space_;
  const Oid first_oid_;
  const uint64_t oid_stride_;
  StripedOidMap table_;
  std::atomic<Oid> next_oid_;
  std::atomic<PageId> current_fill_page_{kInvalidPageId};
  ObjectStoreStats stats_;
};

}  // namespace ocb

#endif  // OCB_STORAGE_OBJECT_STORE_H_
