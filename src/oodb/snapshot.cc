#include "oodb/snapshot.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "util/format.h"
#include "wal/killpoint.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace ocb {
namespace {

constexpr char kMagic[8] = {'O', 'C', 'B', 'S', 'N', 'A', 'P', '1'};

class Writer {
 public:
  explicit Writer(std::FILE* file) : file_(file) {}

  void U8(uint8_t v) { Raw(&v, 1); }
  void U16(uint16_t v) { Raw(&v, 2); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void U64(uint64_t v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t size) {
    if (ok_ && std::fwrite(data, 1, size, file_) != size) ok_ = false;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* file_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(std::FILE* file) : file_(file) {}

  uint8_t U8() { return RawInt<uint8_t>(); }
  uint16_t U16() { return RawInt<uint16_t>(); }
  uint32_t U32() { return RawInt<uint32_t>(); }
  uint64_t U64() { return RawInt<uint64_t>(); }
  std::string Str() {
    const uint64_t size = U64();
    if (!ok_ || size > (1u << 20)) {
      ok_ = false;
      return {};
    }
    std::string s(size, '\0');
    Raw(s.data(), size);
    return s;
  }
  void Raw(void* data, size_t size) {
    if (ok_ && std::fread(data, 1, size, file_) != size) ok_ = false;
  }
  /// Bytes between the read position and the end of the file.
  uint64_t Remaining() {
    struct stat st {};
    const long at = std::ftell(file_);
    if (!ok_ || at < 0 || ::fstat(fileno(file_), &st) != 0 ||
        st.st_size < at) {
      ok_ = false;
      return 0;
    }
    return static_cast<uint64_t>(st.st_size - at);
  }
  bool ok() const { return ok_; }

 private:
  template <typename T>
  T RawInt() {
    T v{};
    Raw(&v, sizeof(T));
    return v;
  }
  std::FILE* file_;
  bool ok_ = true;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

Status SaveSnapshot(Database* db, const std::string& path) {
  // Quiesce: drains every in-flight page pin (so a reader mid-fetch
  // cannot race the flush below) and blocks new physical activity from
  // other threads for the duration of the save.
  Database::QuiesceGuard quiesce(db);
  // An in-flight transaction holding locks means the pages (and the undo
  // state that would repair them) are mid-flight too: a snapshot taken now
  // would capture uncommitted writes with no way to roll them back on
  // load. Refuse instead of persisting a torn database.
  if (db->lock_manager()->locked_object_count() > 0) {
    return Status::InvalidArgument(
        "SaveSnapshot refused: in-flight transactions hold object locks; "
        "commit or abort them first");
  }
  OCB_RETURN_NOT_OK(db->buffer_pool()->FlushAll());

  FilePtr file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) {
    return Status::IOError(Format("cannot create '%s'", path.c_str()));
  }
  Writer w(file.get());
  w.Raw(kMagic, sizeof(kMagic));
  w.U64(db->options().page_size);
  w.U64(db->disk()->num_pages());

  // Schema.
  const Schema& schema = db->schema();
  w.U64(schema.ref_type_count());
  for (RefTypeId t = 0; t < schema.ref_type_count(); ++t) {
    const RefTypeTraits& traits = schema.ref_type(t);
    w.U8(traits.acyclic ? 1 : 0);
    w.U8(traits.is_inheritance ? 1 : 0);
    w.Str(traits.name);
  }
  w.U64(schema.class_count());
  for (ClassId c = 0; c < schema.class_count(); ++c) {
    const ClassDescriptor& cls = schema.GetClass(c);
    w.U32(cls.maxnref);
    w.U32(cls.basesize);
    w.U32(cls.instance_size);
    for (uint32_t j = 0; j < cls.maxnref; ++j) w.U16(cls.tref[j]);
    for (uint32_t j = 0; j < cls.maxnref; ++j) w.U32(cls.cref[j]);
    // A committer may append to the live extent meanwhile (the quiesce
    // gate does not stop creates): write a copy taken under the catalog
    // latch.
    const std::vector<Oid> extent = db->ExtentSnapshot(c);
    w.U64(extent.size());
    for (Oid oid : extent) w.U64(oid);
  }

  // Object table.
  const auto table = db->object_store()->TableSnapshot();
  w.U64(db->object_store()->max_oid() + 1);  // next_oid.
  w.U64(table.size());
  for (const auto& [oid, loc] : table) {
    w.U64(oid);
    w.U32(loc.page_id);
    w.U16(loc.slot_id);
  }

  // Page images.
  for (PageId p = 0; p < db->disk()->num_pages(); ++p) {
    w.Raw(db->disk()->raw_page(p), db->options().page_size);
  }
  if (!w.ok()) {
    return Status::IOError(Format("short write to '%s'", path.c_str()));
  }
  // The checkpoint record below must never point at a snapshot the
  // kernel could still lose: flush and fsync before logging it.
  if (std::fflush(file.get()) != 0 || ::fsync(fileno(file.get())) != 0) {
    return Status::IOError(Format("fsync failed for '%s'", path.c_str()));
  }
  if (db->wal_enabled()) {
    // Crash window the kill-point harness probes: snapshot durable but
    // its checkpoint record not yet logged — recovery must fall back to
    // an older checkpoint or a from-scratch replay.
    wal_killpoint::MaybeKill("mid-checkpoint");
    // Watermark: with no transaction in flight (checked above), every
    // commit <= latest is in the snapshot and every later one is not.
    // Replay is idempotent, so a conservative (low) watermark is safe.
    wal::WalRecord rec;
    rec.type = wal::WalRecordType::kCheckpoint;
    rec.commit_ts = db->version_store()->latest();
    wal::WalOp op;
    op.kind = wal::WalOpKind::kCheckpointInfo;
    op.payload.assign(path.begin(), path.end());
    rec.ops.push_back(std::move(op));
    OCB_RETURN_NOT_OK(db->wal()->Append(rec));
    OCB_RETURN_NOT_OK(db->wal()->Force());
    // Closed segments wholly below this checkpoint replay to state the
    // snapshot already captures — reclaim them. Best-effort: a prune that
    // keeps a segment only costs replay time, never correctness.
    (void)db->wal()->PruneSegments(rec.commit_ts);
  }
  return Status::OK();
}

Status LoadSnapshot(Database* db, const std::string& path) {
  Database::QuiesceGuard quiesce(db);
  if (db->object_count() != 0) {
    return Status::InvalidArgument("LoadSnapshot requires an empty database");
  }
  // A failed load can leave pages without objects behind; this file's
  // pages would then land at shifted ids.
  if (db->disk()->num_pages() != 0) {
    return Status::InvalidArgument(
        "LoadSnapshot requires a database that holds no pages");
  }
  FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    return Status::IOError(Format("cannot open '%s'", path.c_str()));
  }
  Reader r(file.get());
  char magic[8];
  r.Raw(magic, sizeof(magic));
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not an OCB snapshot");
  }
  const uint64_t page_size = r.U64();
  if (page_size != db->options().page_size) {
    return Status::InvalidArgument(
        Format("snapshot page_size %llu != database page_size %zu",
               (unsigned long long)page_size, db->options().page_size));
  }
  const uint64_t page_count = r.U64();

  // Schema.
  Schema schema;
  const uint64_t nreft = r.U64();
  if (!r.ok() || nreft > 1024) return Status::Corruption("bad nreft");
  std::vector<RefTypeTraits> traits(nreft);
  for (auto& t : traits) {
    t.acyclic = r.U8() != 0;
    t.is_inheritance = r.U8() != 0;
    t.name = r.Str();
  }
  schema.SetRefTypes(std::move(traits));
  const uint64_t nclasses = r.U64();
  if (!r.ok() || nclasses > (1u << 20)) {
    return Status::Corruption("bad class count");
  }
  for (ClassId c = 0; c < nclasses; ++c) {
    ClassDescriptor cls;
    cls.id = c;
    cls.maxnref = r.U32();
    cls.basesize = r.U32();
    cls.instance_size = r.U32();
    if (!r.ok() || cls.maxnref > (1u << 16)) {
      return Status::Corruption("bad class header");
    }
    cls.tref.resize(cls.maxnref);
    cls.cref.resize(cls.maxnref);
    for (uint32_t j = 0; j < cls.maxnref; ++j) cls.tref[j] = r.U16();
    for (uint32_t j = 0; j < cls.maxnref; ++j) cls.cref[j] = r.U32();
    const uint64_t extent = r.U64();
    if (!r.ok() || extent > (1ull << 32)) {
      return Status::Corruption("bad extent size");
    }
    cls.iterator.resize(extent);
    for (uint64_t i = 0; i < extent; ++i) cls.iterator[i] = r.U64();
    OCB_RETURN_NOT_OK(schema.AddClass(std::move(cls)));
  }
  OCB_RETURN_NOT_OK(schema.Validate());

  // Object table.
  const Oid next_oid = r.U64();
  const uint64_t entries = r.U64();
  if (!r.ok() || entries > (1ull << 32)) {
    return Status::Corruption("bad table size");
  }
  std::unordered_map<Oid, ObjectLocation> table;
  table.reserve(entries);
  for (uint64_t i = 0; i < entries; ++i) {
    const Oid oid = r.U64();
    ObjectLocation loc;
    loc.page_id = r.U32();
    loc.slot_id = r.U16();
    if (!r.ok()) break;  // Reported as a short read below.
    if (loc.page_id >= page_count) {
      return Status::Corruption("table entry past page count");
    }
    // Every live oid was allocated before the saved counter; an entry at
    // or past it would be handed out again by AllocateOid.
    if (!db->object_store()->CanHold(oid) || oid >= next_oid) {
      return Status::Corruption(Format(
          "table entry oid %llu is not one this store allocated "
          "(next_oid %llu)",
          (unsigned long long)oid, (unsigned long long)next_oid));
    }
    if (!table.emplace(oid, loc).second) {
      return Status::Corruption(
          Format("duplicate table entry for oid %llu", (unsigned long long)oid));
    }
  }

  // Page images. Checked against the file's length before the first
  // AllocatePage, so that a truncated file allocates nothing.
  const uint64_t image_bytes = r.Remaining();
  if (!r.ok()) {
    return Status::Corruption(Format("short read from '%s'", path.c_str()));
  }
  if (image_bytes % page_size != 0 || image_bytes / page_size != page_count) {
    return Status::Corruption(
        Format("'%s' holds %llu bytes of page images, not %llu pages of %llu",
               path.c_str(), (unsigned long long)image_bytes,
               (unsigned long long)page_count, (unsigned long long)page_size));
  }
  std::vector<uint8_t> buffer(page_size);
  for (uint64_t p = 0; p < page_count; ++p) {
    r.Raw(buffer.data(), buffer.size());
    const PageId id = db->disk()->AllocatePage();
    db->disk()->LoadPageImage(id, buffer.data());
  }
  if (!r.ok()) {
    return Status::Corruption(Format("short read from '%s'", path.c_str()));
  }

  db->SetSchema(std::move(schema));
  {
    ScopedIoScope scope(db->disk(), IoScope::kGeneration);
    OCB_RETURN_NOT_OK(
        db->object_store()->RestoreTable(std::move(table), next_oid));
  }
  return db->ColdRestart();
}

}  // namespace ocb
