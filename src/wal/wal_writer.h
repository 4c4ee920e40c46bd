/// \file wal_writer.h
/// \brief Append/force side of the redo write-ahead log.
///
/// One WalWriter owns one WAL file. The commit pipeline's leader appends
/// every record of a group-commit batch, then calls Force() once — a
/// single fflush + fsync per batch — before any member of the batch is
/// acknowledged. Appends and forces are serialized by an internal mutex so
/// the checkpoint path (SaveSnapshot) can append concurrently with a
/// commit leader without interleaving frames.
///
/// Open() scans an existing file and truncates a torn tail (an incomplete
/// or CRC-failing final record left by a crash) before positioning at the
/// end, so the append point is always the end of the valid prefix.
///
/// With a nonzero \p segment_bytes the log is segmented: when an append
/// would push the current segment past the limit the writer fsync-closes
/// it and starts "<path>.seg<k>" (segment 0 IS \p path). Records are never
/// split across segments, and a record larger than the limit still lands
/// whole — rotation only triggers on a non-empty segment. Readers use
/// wal_reader's ReadWalSegments to see the concatenated log; PruneSegments
/// lets the checkpoint path delete closed segments wholly below the
/// durability watermark.

#ifndef OCB_WAL_WAL_WRITER_H_
#define OCB_WAL_WAL_WRITER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/status.h"
#include "util/sync.h"
#include "wal/wal_format.h"

namespace ocb {
namespace wal {

class WalWriter {
 public:
  /// Opens (creating if absent) the WAL at \p path. An existing file has
  /// its torn tail truncated; a file that exists but does not start with
  /// the WAL magic is a Corruption error (never silently clobbered). For a
  /// segmented log the HIGHEST existing segment is the append target — the
  /// earlier ones are immutable. \p segment_bytes == 0 disables rotation
  /// (one unbounded file, the legacy layout).
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t segment_bytes = 0);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Serializes \p rec and appends its frame to the file (buffered; not
  /// durable until Force()).
  Status Append(const WalRecord& rec);

  /// Makes everything appended so far durable: fflush + fsync. Charged
  /// once per group-commit batch by the commit leader.
  Status Force();

  /// Force() only when records were appended since the last force; a
  /// clean log is a no-op. The cross-shard fast path uses this on the
  /// coordinator log so a dependent commit's ack can never become
  /// durable while a predecessor's 2PC marker is still unforced.
  Status ForceIfDirty();

  /// Deletes every CLOSED segment (index below the current append target)
  /// whose records are all at or below \p watermark and that holds no
  /// checkpoint record at or above it — the checkpoint record that carries
  /// the snapshot path recovery will load must survive its own prune.
  /// Segment 0 is truncated back to its magic instead of unlinked, so the
  /// base path keeps existing and NotFound still means "never logged".
  /// \p pruned (optional) receives the number of segments removed.
  Status PruneSegments(uint64_t watermark, uint64_t* pruned = nullptr);

  const std::string& path() const { return path_; }

  /// True when Open found an earlier run's commits in the log: a record
  /// with a nonzero commit timestamp, or a closed segment below the
  /// append target. Such a log must be replayed before new commits are
  /// appended behind it (their timestamps would restart at 1).
  bool found_commits() const { return found_commits_; }

  /// Records appended through this writer since Open (tests/obs).
  uint64_t appended_records() const;
  /// Forces issued since Open (tests/obs).
  uint64_t forces() const;
  /// Index of the segment currently open for append (tests/obs).
  uint64_t segment_index() const;
  /// Segment rotations performed since Open (tests/obs).
  uint64_t rotations() const;

 private:
  WalWriter(std::string path, std::FILE* file, uint64_t segment_bytes,
            uint64_t segment_index, uint64_t segment_size, bool found_commits)
      : path_(std::move(path)),
        file_(file),
        segment_bytes_(segment_bytes),
        found_commits_(found_commits),
        segment_index_(segment_index),
        segment_size_(segment_size) {}

  /// Fsync-closes the current segment and opens the next one with a fresh
  /// magic. Caller holds mu_.
  Status RotateSegmentLocked() OCB_REQUIRES(mu_);

  std::string path_;
  mutable Mutex mu_{lockdep::kWalWriterClass};
  std::FILE* file_ OCB_GUARDED_BY(mu_);
  const uint64_t segment_bytes_;  ///< Rotation threshold; 0 = never rotate.
  const bool found_commits_;      ///< See found_commits().

  /// Index of the open append segment.
  uint64_t segment_index_ OCB_GUARDED_BY(mu_) = 0;
  /// Bytes written to it (incl. magic).
  uint64_t segment_size_ OCB_GUARDED_BY(mu_) = 0;
  uint64_t rotations_ OCB_GUARDED_BY(mu_) = 0;
  uint64_t appended_records_ OCB_GUARDED_BY(mu_) = 0;
  uint64_t forces_ OCB_GUARDED_BY(mu_) = 0;
  /// Appended since the last Force.
  uint64_t dirty_records_ OCB_GUARDED_BY(mu_) = 0;
};

}  // namespace wal
}  // namespace ocb

#endif  // OCB_WAL_WAL_WRITER_H_
