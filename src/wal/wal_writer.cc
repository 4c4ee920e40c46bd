#include "wal/wal_writer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include <unistd.h>

#include "obs/metrics_registry.h"
#include "util/format.h"
#include "wal/crc32.h"
#include "wal/killpoint.h"
#include "wal/wal_reader.h"

namespace ocb {
namespace wal {
namespace {

uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Histogram lookups take the registry mutex, which ranks ABOVE every
// engine mutex (its Snapshot runs gauge callbacks that take engine
// mutexes) — so the lazy resolution must NOT happen under the WAL
// writer mutex. Open() warms both accessors with nothing held; the
// Record* helpers below then run lock-free under mu_.
obs::LatencyHistogram* AppendHistogram() {
#ifndef OCB_OBS_DISABLED
  static obs::LatencyHistogram* h =
      obs::MetricsRegistry::Global().GetHistogram("wal.append");
  return h;
#else
  return nullptr;
#endif
}

obs::LatencyHistogram* ForceHistogram() {
#ifndef OCB_OBS_DISABLED
  static obs::LatencyHistogram* h =
      obs::MetricsRegistry::Global().GetHistogram("wal.force");
  return h;
#else
  return nullptr;
#endif
}

void RecordAppend(uint64_t nanos) {
  if (obs::LatencyHistogram* h = AppendHistogram()) h->Record(nanos);
}

void RecordForce(uint64_t nanos) {
  if (obs::LatencyHistogram* h = ForceHistogram()) h->Record(nanos);
}

void PutU8(std::vector<uint8_t>& buf, uint8_t v) { buf.push_back(v); }

void PutU32(std::vector<uint8_t>& buf, uint32_t v) {
  const size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>& buf, uint64_t v) {
  const size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t segment_bytes) {
  // Resolve the instruments now, with no mutex held — the registry
  // mutex must never be taken under mu_ (lock hierarchy: obs.registry
  // ranks above wal.writer).
  AppendHistogram();
  ForceHistogram();
  // Only the highest segment is ever appended to (and hence ever torn);
  // everything below it was fsync-closed by rotation and stays immutable.
  uint64_t segment_index = 0;
  {
    const std::vector<uint64_t> segments = ListWalSegments(path);
    if (!segments.empty()) segment_index = segments.back();
  }
  const std::string seg_path = WalSegmentPath(path, segment_index);

  std::FILE* file = std::fopen(seg_path.c_str(), "r+b");
  if (file == nullptr) {
    // Fresh log: create it and stamp the magic.
    file = std::fopen(seg_path.c_str(), "w+b");
    if (file == nullptr) {
      return Status::IOError(
          Format("WAL open failed for '%s'", seg_path.c_str()));
    }
    if (std::fwrite(kWalMagic, 1, kWalMagicSize, file) != kWalMagicSize ||
        std::fflush(file) != 0 || ::fsync(fileno(file)) != 0) {
      std::fclose(file);
      return Status::IOError(
          Format("WAL magic write failed for '%s'", seg_path.c_str()));
    }
    return std::unique_ptr<WalWriter>(
        new WalWriter(path, file, segment_bytes, segment_index,
                      kWalMagicSize, /*found_commits=*/false));
  }

  // Existing log: find the end of the valid prefix and drop the torn tail
  // before appending. ScanWalFile also rejects bad magic as Corruption.
  uint64_t valid_end = 0;
  std::vector<WalRecord> records;
  Status st = ScanWalFile(file, &records, &valid_end);
  if (!st.ok()) {
    std::fclose(file);
    return st;
  }
  // Closed segments below the append target were filled by earlier runs.
  const bool found_commits =
      segment_index > 0 ||
      std::any_of(records.begin(), records.end(),
                  [](const WalRecord& rec) { return rec.commit_ts != 0; });
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::IOError(
        Format("WAL seek failed for '%s'", seg_path.c_str()));
  }
  const long size = std::ftell(file);
  if (size < 0) {
    std::fclose(file);
    return Status::IOError(
        Format("WAL tell failed for '%s'", seg_path.c_str()));
  }
  if (static_cast<uint64_t>(size) > valid_end) {
    // Torn tail: truncate back to the valid prefix so the next append
    // starts on a clean frame boundary.
    if (::ftruncate(fileno(file), static_cast<off_t>(valid_end)) != 0) {
      std::fclose(file);
      return Status::IOError(
          Format("WAL torn-tail truncate failed for '%s'", seg_path.c_str()));
    }
  }
  if (std::fseek(file, static_cast<long>(valid_end), SEEK_SET) != 0) {
    std::fclose(file);
    return Status::IOError(
        Format("WAL seek failed for '%s'", seg_path.c_str()));
  }
  // A zero-length file (crash between creat() and the magic) scans to
  // valid_end == 0; the next append still needs the magic first, so
  // restamp it here.
  if (valid_end == 0) {
    if (std::fwrite(kWalMagic, 1, kWalMagicSize, file) != kWalMagicSize ||
        std::fflush(file) != 0 || ::fsync(fileno(file)) != 0) {
      std::fclose(file);
      return Status::IOError(
          Format("WAL magic write failed for '%s'", seg_path.c_str()));
    }
    valid_end = kWalMagicSize;
  }
  return std::unique_ptr<WalWriter>(new WalWriter(
      path, file, segment_bytes, segment_index, valid_end, found_commits));
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Append(const WalRecord& rec) {
  const auto start = std::chrono::steady_clock::now();

  // Frame: [crc:u32][length:u32][body]; crc covers length + body.
  std::vector<uint8_t> buf;
  buf.reserve(64);
  PutU32(buf, 0);  // crc placeholder
  PutU32(buf, 0);  // length placeholder
  PutU8(buf, static_cast<uint8_t>(rec.type));
  PutU8(buf, rec.flags);
  PutU64(buf, rec.txn_id);
  PutU64(buf, rec.commit_ts);
  PutU32(buf, static_cast<uint32_t>(rec.ops.size()));
  for (const WalOp& op : rec.ops) {
    PutU8(buf, static_cast<uint8_t>(op.kind));
    PutU32(buf, op.class_id);
    PutU64(buf, op.oid);
    PutU32(buf, static_cast<uint32_t>(op.payload.size()));
    buf.insert(buf.end(), op.payload.begin(), op.payload.end());
  }
  const uint32_t length =
      static_cast<uint32_t>(buf.size() - kWalFrameHeaderSize);
  std::memcpy(buf.data() + sizeof(uint32_t), &length, sizeof(length));
  const uint32_t crc =
      Crc32(buf.data() + sizeof(uint32_t), buf.size() - sizeof(uint32_t));
  std::memcpy(buf.data(), &crc, sizeof(crc));

  MutexLock lock(mu_);
  if (file_ == nullptr) {
    return Status::IOError(
        Format("WAL '%s' lost its file in a failed rotation", path_.c_str()));
  }
  // Rotate BEFORE the frame, never through it: a record always lands whole
  // in one segment. The non-empty guard keeps an oversized record from
  // spinning up empty segments — it just overshoots the limit.
  if (segment_bytes_ > 0 && segment_size_ > kWalMagicSize &&
      segment_size_ + buf.size() > segment_bytes_) {
    OCB_RETURN_NOT_OK(RotateSegmentLocked());
  }
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size()) {
    return Status::IOError(
        Format("WAL append failed for '%s'", path_.c_str()));
  }
  segment_size_ += buf.size();
  ++appended_records_;
  ++dirty_records_;
  RecordAppend(NanosSince(start));
  return Status::OK();
}

Status WalWriter::RotateSegmentLocked() {
  // The outgoing segment becomes immutable the moment we leave it, so it
  // must be durable BEFORE the switch — Force() only ever touches the
  // current file.
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    return Status::IOError(
        Format("WAL rotate: flush of segment %llu failed for '%s'",
               static_cast<unsigned long long>(segment_index_),
               path_.c_str()));
  }
  std::fclose(file_);
  file_ = nullptr;
  ++segment_index_;
  const std::string seg = WalSegmentPath(path_, segment_index_);
  std::FILE* file = std::fopen(seg.c_str(), "w+b");
  if (file == nullptr) {
    return Status::IOError(
        Format("WAL rotate: open failed for '%s'", seg.c_str()));
  }
  if (std::fwrite(kWalMagic, 1, kWalMagicSize, file) != kWalMagicSize ||
      std::fflush(file) != 0 || ::fsync(fileno(file)) != 0) {
    std::fclose(file);
    return Status::IOError(
        Format("WAL rotate: magic write failed for '%s'", seg.c_str()));
  }
  file_ = file;
  segment_size_ = kWalMagicSize;
  dirty_records_ = 0;  // Everything before the switch was just fsynced.
  ++rotations_;
  return Status::OK();
}

Status WalWriter::Force() {
  const auto start = std::chrono::steady_clock::now();
  MutexLock lock(mu_);
  if (file_ == nullptr) {
    return Status::IOError(
        Format("WAL '%s' lost its file in a failed rotation", path_.c_str()));
  }
  // Crash before anything reached the disk: every record appended since
  // the last force must be invisible after recovery.
  wal_killpoint::MaybeKill("pre-force");
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    return Status::IOError(Format("WAL force failed for '%s'", path_.c_str()));
  }
  // Crash after durability but before the batch is acknowledged: recovery
  // must replay these records even though no client saw an ack.
  wal_killpoint::MaybeKill("post-force");
  ++forces_;
  dirty_records_ = 0;
  RecordForce(NanosSince(start));
  return Status::OK();
}

Status WalWriter::ForceIfDirty() {
  {
    MutexLock lock(mu_);
    if (dirty_records_ == 0) return Status::OK();
  }
  return Force();
}

Status WalWriter::PruneSegments(uint64_t watermark, uint64_t* pruned) {
  if (pruned != nullptr) *pruned = 0;
  MutexLock lock(mu_);
  for (uint64_t index : ListWalSegments(path_)) {
    if (index >= segment_index_) continue;  // The append target stays.
    auto scan = ReadWal(WalSegmentPath(path_, index));
    // An unreadable or torn closed segment is never silently discarded —
    // leave it on disk for inspection and keep recovery conservative.
    if (!scan.ok() || scan.value().torn_tail) continue;
    bool prunable = true;
    for (const WalRecord& rec : scan.value().records) {
      if (rec.commit_ts > watermark ||
          (rec.type == WalRecordType::kCheckpoint &&
           rec.commit_ts >= watermark)) {
        // Either a commit the snapshot does not cover, or the checkpoint
        // record whose payload IS the snapshot pointer recovery loads.
        prunable = false;
        break;
      }
    }
    if (!prunable) continue;
    if (index == 0) {
      // Segment 0 is the base path: truncate it back to a bare magic so
      // the log's existence (and the NotFound contract) is preserved.
      std::FILE* f = std::fopen(path_.c_str(), "w+b");
      if (f == nullptr) continue;
      const bool ok =
          std::fwrite(kWalMagic, 1, kWalMagicSize, f) == kWalMagicSize &&
          std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
      std::fclose(f);
      if (ok && pruned != nullptr) ++*pruned;
    } else if (std::remove(WalSegmentPath(path_, index).c_str()) == 0) {
      if (pruned != nullptr) ++*pruned;
    }
  }
  return Status::OK();
}

uint64_t WalWriter::appended_records() const {
  MutexLock lock(mu_);
  return appended_records_;
}

uint64_t WalWriter::forces() const {
  MutexLock lock(mu_);
  return forces_;
}

uint64_t WalWriter::segment_index() const {
  MutexLock lock(mu_);
  return segment_index_;
}

uint64_t WalWriter::rotations() const {
  MutexLock lock(mu_);
  return rotations_;
}

}  // namespace wal
}  // namespace ocb
