#include "storage/object_store.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/format.h"

namespace ocb {

namespace {
// An optimistic resolution (table lookup → page latch → re-validate)
// retries when a concurrent relocation moved the object between the lookup
// and the latch. Every retry requires a *completed* relocation of the same
// object in the window, so the bound is generous: hitting it indicates a
// livelock bug, not load.
constexpr int kMaxResolveAttempts = 64;
}  // namespace

ObjectStore::ObjectStore(BufferPool* pool, Oid first_oid,
                         uint64_t oid_stride)
    : pool_(pool),
      first_oid_(first_oid < 1 ? 1 : first_oid),
      oid_stride_(oid_stride < 1 ? 1 : oid_stride),
      table_(pool->latch_stripes(), first_oid_, oid_stride_),
      next_oid_(first_oid_) {}

Result<ObjectLocation> ObjectStore::Place(std::span<const uint8_t> bytes,
                                          PageId hint_page) {
  const size_t needed = bytes.size() + sizeof(Page::Slot);
  // 1. Hinted page (co-location request).
  // 2. Current fill page (append fast path).
  // 3. Any known page with space.
  // 4. Fresh page.
  PageId target = kInvalidPageId;
  if (hint_page != kInvalidPageId) {
    target = free_space_.FindPageWithSpace(needed, hint_page);
    if (target != hint_page) target = kInvalidPageId;  // Hint only.
  }
  const PageId fill = current_fill_page_.load(std::memory_order_relaxed);
  if (target == kInvalidPageId && fill != kInvalidPageId) {
    target = free_space_.FindPageWithSpace(needed, fill);
    if (target != fill) target = kInvalidPageId;
  }
  if (target == kInvalidPageId) {
    target = free_space_.FindPageWithSpace(needed);
  }
  if (target != kInvalidPageId) {
    OCB_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->FetchPage(target, LatchMode::kExclusive));
    Page page = handle.page();
    auto slot = page.Insert(bytes);
    if (slot.ok()) {
      handle.MarkDirty();
      free_space_.Update(target, page.FreeSpace());
      if (hint_page == kInvalidPageId) {
        current_fill_page_.store(target, std::memory_order_relaxed);
      }
      return ObjectLocation{target, slot.value()};
    }
    // Advisory estimate was stale (possibly a concurrent placement won the
    // space); refresh it and fall through to a fresh page.
    free_space_.Update(target, page.FreeSpace());
  }
  PageId new_page_id = kInvalidPageId;
  OCB_ASSIGN_OR_RETURN(PageHandle handle, pool_->NewPage(&new_page_id));
  Page page = handle.page();
  OCB_ASSIGN_OR_RETURN(SlotId slot, page.Insert(bytes));
  handle.MarkDirty();
  free_space_.Update(new_page_id, page.FreeSpace());
  current_fill_page_.store(new_page_id, std::memory_order_relaxed);
  stats_.data_pages.fetch_add(1, std::memory_order_relaxed);
  return ObjectLocation{new_page_id, slot};
}

Result<Oid> ObjectStore::Insert(std::span<const uint8_t> bytes,
                                Oid placement_hint) {
  if (bytes.size() > max_object_size()) {
    return Status::InvalidArgument(
        Format("object of %zu bytes exceeds max object size %zu",
               bytes.size(), max_object_size()));
  }
  PageId hint_page = kInvalidPageId;
  if (placement_hint != kInvalidOid) {
    ObjectLocation hint_loc;
    if (table_.Lookup(placement_hint, &hint_loc)) {
      hint_page = hint_loc.page_id;
    }
  }
  OCB_ASSIGN_OR_RETURN(ObjectLocation loc, Place(bytes, hint_page));
  const Oid oid = AllocateOid();
  if (!table_.Put(oid, loc)) {
    Unplace(loc);
    return Status::InvalidArgument(
        Format("oid %llu has no slot in the object table (cap %llu slots)",
               (unsigned long long)oid,
               (unsigned long long)StripedOidMap::kMaxSlots));
  }
  stats_.objects.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_stored.fetch_add(bytes.size(), std::memory_order_relaxed);
  return oid;
}

void ObjectStore::Unplace(ObjectLocation loc) {
  auto handle = pool_->FetchPage(loc.page_id, LatchMode::kExclusive);
  if (handle.ok()) {
    Page page = handle->page();
    (void)page.Erase(loc.slot_id);
    handle->MarkDirty();
    free_space_.Update(loc.page_id, page.FreeSpace());
  }
}

Status ObjectStore::InsertWithOid(Oid oid, std::span<const uint8_t> bytes) {
  if (!table_.Holds(oid)) {
    return Status::InvalidArgument(Format(
        "oid %llu is not one this store can hold (progression %llu + k*%llu, "
        "k < %llu)",
        (unsigned long long)oid, (unsigned long long)first_oid_,
        (unsigned long long)oid_stride_,
        (unsigned long long)StripedOidMap::kMaxSlots));
  }
  if (table_.Contains(oid)) {
    return Status::AlreadyExists(
        Format("oid %llu is live", (unsigned long long)oid));
  }
  if (bytes.size() > max_object_size()) {
    return Status::InvalidArgument("object exceeds max object size");
  }
  OCB_ASSIGN_OR_RETURN(ObjectLocation loc, Place(bytes, kInvalidPageId));
  if (!table_.PutIfAbsent(oid, loc)) {
    // Lost a (caller-contract-violating) race to register the same oid.
    Unplace(loc);
    return Status::AlreadyExists(
        Format("oid %llu is live", (unsigned long long)oid));
  }
  // Keep the allocator ahead of re-registered oids: oid is on the
  // progression, so the next member after it is oid + oid_stride_.
  const Oid bumped = oid + oid_stride_;
  Oid expected = next_oid_.load(std::memory_order_relaxed);
  while (bumped > expected &&
         !next_oid_.compare_exchange_weak(expected, bumped,
                                          std::memory_order_relaxed)) {
  }
  stats_.objects.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_stored.fetch_add(bytes.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status ObjectStore::Read(Oid oid, std::vector<uint8_t>* out) {
  for (int attempt = 0; attempt < kMaxResolveAttempts; ++attempt) {
    ObjectLocation loc;
    if (!table_.Lookup(oid, &loc)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    OCB_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->FetchPage(loc.page_id, LatchMode::kShared));
    // Re-validate under the latch: a relocation publishes the new location
    // while holding both page latches, so an unchanged entry proves the
    // record is still at `loc`.
    ObjectLocation now;
    if (!table_.Lookup(oid, &now)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    if (!(now == loc)) continue;  // Moved between lookup and latch.
    const Page page = handle.page();
    OCB_ASSIGN_OR_RETURN(std::span<const uint8_t> record,
                         page.Read(loc.slot_id));
    out->assign(record.begin(), record.end());
    return Status::OK();
  }
  return Status::Aborted(
      Format("oid %llu kept relocating during read",
             (unsigned long long)oid));
}

Status ObjectStore::Update(Oid oid, std::span<const uint8_t> bytes) {
  if (bytes.size() > max_object_size()) {
    return Status::InvalidArgument("object exceeds max object size");
  }
  for (int attempt = 0; attempt < kMaxResolveAttempts; ++attempt) {
    ObjectLocation loc;
    if (!table_.Lookup(oid, &loc)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    {
      OCB_ASSIGN_OR_RETURN(
          PageHandle handle,
          pool_->FetchPage(loc.page_id, LatchMode::kExclusive));
      ObjectLocation now;
      if (!table_.Lookup(oid, &now)) {
        return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
      }
      if (!(now == loc)) continue;
      Page page = handle.page();
      OCB_ASSIGN_OR_RETURN(std::span<const uint8_t> old_record,
                           page.Read(loc.slot_id));
      const size_t old_size = old_record.size();
      Status st = page.Update(loc.slot_id, bytes);
      if (st.ok()) {
        handle.MarkDirty();
        free_space_.Update(loc.page_id, page.FreeSpace());
        stats_.bytes_stored.fetch_add(bytes.size(),
                                      std::memory_order_relaxed);
        stats_.bytes_stored.fetch_sub(old_size, std::memory_order_relaxed);
        return Status::OK();
      }
      if (!st.IsNoSpace()) return st;
      // Does not fit on its page any more: relocate (the move re-validates
      // and erases the old copy under both latches).
    }
    OCB_ASSIGN_OR_RETURN(ObjectLocation moved,
                         MoveRecord(oid, bytes, kInvalidPageId));
    (void)moved;
    return Status::OK();
  }
  return Status::Aborted(
      Format("oid %llu kept relocating during update",
             (unsigned long long)oid));
}

Result<ObjectLocation> ObjectStore::MoveRecord(Oid oid,
                                               std::span<const uint8_t> bytes,
                                               PageId hint_page) {
  const size_t needed = bytes.size() + sizeof(Page::Slot);
  for (int attempt = 0; attempt < kMaxResolveAttempts; ++attempt) {
    ObjectLocation loc;
    if (!table_.Lookup(oid, &loc)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    // Destination candidate: hint page, then fill page, then any page with
    // room; never the source page (the caller either proved the record no
    // longer fits there or wants it moved off).
    PageId dest = kInvalidPageId;
    if (hint_page != kInvalidPageId && hint_page != loc.page_id) {
      dest = free_space_.FindPageWithSpace(needed, hint_page);
      if (dest != hint_page) dest = kInvalidPageId;  // Hint only.
    }
    if (dest == kInvalidPageId) {
      const PageId fill = current_fill_page_.load(std::memory_order_relaxed);
      if (fill != kInvalidPageId && fill != loc.page_id) {
        dest = free_space_.FindPageWithSpace(needed, fill);
        if (dest != fill) dest = kInvalidPageId;
      }
    }
    if (dest == kInvalidPageId) {
      dest = free_space_.FindPageWithSpace(needed);
      if (dest == loc.page_id) dest = kInvalidPageId;
    }
    PageHandle src, dst;
    PageId dest_page = dest;
    const bool fresh = dest == kInvalidPageId;
    if (!fresh) {
      // Latch source and destination in ascending page-id order so
      // concurrent movers can never deadlock each other.
      if (dest < loc.page_id) {
        OCB_ASSIGN_OR_RETURN(dst,
                             pool_->FetchPage(dest, LatchMode::kExclusive));
        OCB_ASSIGN_OR_RETURN(
            src, pool_->FetchPage(loc.page_id, LatchMode::kExclusive));
      } else {
        OCB_ASSIGN_OR_RETURN(
            src, pool_->FetchPage(loc.page_id, LatchMode::kExclusive));
        OCB_ASSIGN_OR_RETURN(dst,
                             pool_->FetchPage(dest, LatchMode::kExclusive));
      }
    } else {
      // A fresh page always has the highest page id yet, so this order is
      // ascending too.
      OCB_ASSIGN_OR_RETURN(
          src, pool_->FetchPage(loc.page_id, LatchMode::kExclusive));
      OCB_ASSIGN_OR_RETURN(dst, pool_->NewPage(&dest_page));
    }
    ObjectLocation now;
    if (!table_.Lookup(oid, &now)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    if (!(now == loc)) continue;  // Moved before we latched; retry.
    Page dest_view = dst.page();
    auto slot = dest_view.Insert(bytes);
    if (!slot.ok()) {
      if (fresh) return slot.status();  // Cannot happen for legal sizes.
      // Stale estimate (or a concurrent placement filled it): refresh the
      // map and retry with another destination.
      free_space_.Update(dest_page, dest_view.FreeSpace());
      continue;
    }
    dst.MarkDirty();
    Page src_view = src.page();
    OCB_ASSIGN_OR_RETURN(std::span<const uint8_t> old_record,
                         src_view.Read(loc.slot_id));
    const size_t old_size = old_record.size();
    OCB_RETURN_NOT_OK(src_view.Erase(loc.slot_id));
    src.MarkDirty();
    // Publish the new location while both latches are held: a reader
    // validating against either location sees a record that is really
    // there.
    const ObjectLocation moved{dest_page, slot.value()};
    table_.Put(oid, moved);
    free_space_.Update(loc.page_id, src_view.FreeSpace());
    free_space_.Update(dest_page, dest_view.FreeSpace());
    if (fresh) {
      stats_.data_pages.fetch_add(1, std::memory_order_relaxed);
      current_fill_page_.store(dest_page, std::memory_order_relaxed);
    }
    stats_.relocations.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_stored.fetch_add(bytes.size(), std::memory_order_relaxed);
    stats_.bytes_stored.fetch_sub(old_size, std::memory_order_relaxed);
    return moved;
  }
  return Status::Aborted(
      Format("oid %llu kept moving during relocation",
             (unsigned long long)oid));
}

Status ObjectStore::EraseRecord(Oid oid, size_t* erased_bytes) {
  for (int attempt = 0; attempt < kMaxResolveAttempts; ++attempt) {
    ObjectLocation loc;
    if (!table_.Lookup(oid, &loc)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    OCB_ASSIGN_OR_RETURN(
        PageHandle handle,
        pool_->FetchPage(loc.page_id, LatchMode::kExclusive));
    ObjectLocation now;
    if (!table_.Lookup(oid, &now)) {
      return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
    }
    if (!(now == loc)) continue;
    Page page = handle.page();
    OCB_ASSIGN_OR_RETURN(std::span<const uint8_t> record,
                         page.Read(loc.slot_id));
    if (erased_bytes != nullptr) *erased_bytes = record.size();
    OCB_RETURN_NOT_OK(page.Erase(loc.slot_id));
    handle.MarkDirty();
    free_space_.Update(loc.page_id, page.FreeSpace());
    table_.Erase(oid);
    return Status::OK();
  }
  return Status::Aborted(
      Format("oid %llu kept relocating during delete",
             (unsigned long long)oid));
}

Status ObjectStore::Delete(Oid oid) {
  size_t erased = 0;
  OCB_RETURN_NOT_OK(EraseRecord(oid, &erased));
  stats_.bytes_stored.fetch_sub(erased, std::memory_order_relaxed);
  stats_.objects.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

bool ObjectStore::Contains(Oid oid) const { return table_.Contains(oid); }

Result<ObjectLocation> ObjectStore::Locate(Oid oid) const {
  ObjectLocation loc;
  if (!table_.Lookup(oid, &loc)) {
    return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
  }
  return loc;
}

Status ObjectStore::Relocate(Oid oid, Oid neighbor) {
  ObjectLocation loc;
  if (!table_.Lookup(oid, &loc)) {
    return Status::NotFound(Format("oid %llu", (unsigned long long)oid));
  }
  ObjectLocation neighbor_loc;
  if (!table_.Lookup(neighbor, &neighbor_loc)) {
    return Status::NotFound(
        Format("neighbor oid %llu", (unsigned long long)neighbor));
  }
  if (loc.page_id == neighbor_loc.page_id) return Status::OK();
  // Reorganizer primitive (callers quiesce): read-then-move is not atomic
  // against concurrent Updates of the same object, which quiescence rules
  // out.
  std::vector<uint8_t> bytes;
  OCB_RETURN_NOT_OK(Read(oid, &bytes));
  OCB_ASSIGN_OR_RETURN(ObjectLocation moved,
                       MoveRecord(oid, bytes, neighbor_loc.page_id));
  (void)moved;
  return Status::OK();
}

Status ObjectStore::PlaceSequence(const std::vector<Oid>& sequence) {
  return PlaceUnits({sequence});
}

Status ObjectStore::PlaceUnits(const std::vector<std::vector<Oid>>& units) {
  // Erase every listed object from its current page first, then re-place
  // them unit by unit on fresh pages. Erase-then-place keeps peak space at
  // one extra page sequence and guarantees the new layout is contiguous.
  // Quiesced by the caller: table entries dangle (point at erased slots)
  // between the two passes.
  struct Payload {
    Oid oid;
    std::vector<uint8_t> bytes;
  };
  std::vector<std::vector<Payload>> payload_units;
  payload_units.reserve(units.size());
  for (const auto& unit : units) {
    std::vector<Payload>& payloads = payload_units.emplace_back();
    payloads.reserve(unit.size());
    for (Oid oid : unit) {
      ObjectLocation loc;
      if (!table_.Lookup(oid, &loc)) {
        return Status::NotFound(Format("oid %llu in placement sequence",
                                       (unsigned long long)oid));
      }
      std::vector<uint8_t> bytes;
      OCB_RETURN_NOT_OK(Read(oid, &bytes));
      payloads.push_back(Payload{oid, std::move(bytes)});
      OCB_ASSIGN_OR_RETURN(
          PageHandle handle,
          pool_->FetchPage(loc.page_id, LatchMode::kExclusive));
      Page page = handle.page();
      OCB_RETURN_NOT_OK(page.Erase(loc.slot_id));
      handle.MarkDirty();
      free_space_.Update(loc.page_id, page.FreeSpace());
    }
  }
  // Re-place: within a unit objects are packed back to back; a unit that
  // does not fit in the current page's remainder opens a fresh page so
  // units never straddle page boundaries (oversized units still spill).
  PageId fill_page = kInvalidPageId;
  size_t fill_free = 0;
  for (const auto& payloads : payload_units) {
    size_t unit_bytes = 0;
    for (const Payload& p : payloads) {
      unit_bytes += p.bytes.size() + sizeof(Page::Slot);
    }
    if (fill_page != kInvalidPageId && fill_free < unit_bytes) {
      fill_page = kInvalidPageId;  // Align the unit to a fresh page.
    }
    for (const Payload& p : payloads) {
      ObjectLocation loc;
      bool placed = false;
      if (fill_page != kInvalidPageId) {
        OCB_ASSIGN_OR_RETURN(
            PageHandle handle,
            pool_->FetchPage(fill_page, LatchMode::kExclusive));
        Page page = handle.page();
        auto slot = page.Insert(p.bytes);
        if (slot.ok()) {
          handle.MarkDirty();
          fill_free = page.FreeSpace();
          free_space_.Update(fill_page, fill_free);
          loc = ObjectLocation{fill_page, slot.value()};
          placed = true;
        }
      }
      if (!placed) {
        PageId new_page_id = kInvalidPageId;
        OCB_ASSIGN_OR_RETURN(PageHandle handle, pool_->NewPage(&new_page_id));
        Page page = handle.page();
        OCB_ASSIGN_OR_RETURN(SlotId slot, page.Insert(p.bytes));
        handle.MarkDirty();
        fill_free = page.FreeSpace();
        free_space_.Update(new_page_id, fill_free);
        stats_.data_pages.fetch_add(1, std::memory_order_relaxed);
        fill_page = new_page_id;
        loc = ObjectLocation{new_page_id, slot};
      }
      table_.Put(p.oid, loc);
      stats_.relocations.fetch_add(1, std::memory_order_relaxed);
    }
  }
  current_fill_page_.store(kInvalidPageId, std::memory_order_relaxed);
  return Status::OK();
}

std::vector<Oid> ObjectStore::LiveOids() const {
  std::vector<Oid> oids;
  oids.reserve(static_cast<size_t>(table_.size()));
  table_.ForEach(
      [&](Oid oid, const ObjectLocation&) { oids.push_back(oid); });
  return oids;
}

Status ObjectStore::RestoreTable(
    std::unordered_map<Oid, ObjectLocation> table, Oid next_oid) {
  // Scan every referenced page once to rebuild the free-space map and
  // byte statistics (generation-scope I/O: it is part of loading).
  std::unordered_set<PageId> pages;
  for (const auto& [oid, loc] : table) pages.insert(loc.page_id);
  const uint64_t object_count = table.size();
  if (!table_.Reset(std::move(table))) {
    return Status::Corruption("snapshot table holds an oid this store "
                              "cannot hold");
  }
  next_oid_.store(next_oid, std::memory_order_relaxed);
  current_fill_page_.store(kInvalidPageId, std::memory_order_relaxed);
  free_space_.Clear();
  stats_ = ObjectStoreStats{};
  stats_.objects.store(object_count, std::memory_order_relaxed);
  for (PageId page_id : pages) {
    OCB_ASSIGN_OR_RETURN(PageHandle handle,
                         pool_->FetchPage(page_id, LatchMode::kShared));
    const Page page = handle.page();
    free_space_.Update(page_id, page.FreeSpace());
    stats_.bytes_stored.fetch_add(page.LiveBytes(),
                                  std::memory_order_relaxed);
    stats_.data_pages.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

std::vector<Oid> ObjectStore::LiveOidsInPhysicalOrder() const {
  std::vector<std::pair<ObjectLocation, Oid>> located;
  located.reserve(static_cast<size_t>(table_.size()));
  table_.ForEach([&](Oid oid, const ObjectLocation& loc) {
    located.push_back({loc, oid});
  });
  std::sort(located.begin(), located.end(),
            [](const auto& a, const auto& b) {
              if (a.first.page_id != b.first.page_id) {
                return a.first.page_id < b.first.page_id;
              }
              return a.first.slot_id < b.first.slot_id;
            });
  std::vector<Oid> oids;
  oids.reserve(located.size());
  for (const auto& [loc, oid] : located) oids.push_back(oid);
  return oids;
}

}  // namespace ocb
