/// \file storage_options.h
/// \brief Tunables of the storage substrate (RocksDB-style options struct).
///
/// Defaults model the paper's testbed (§4.2): 4 KB pages and an 8 MB main
/// memory on the Sun SPARC/ELC, i.e. a 2048-page buffer pool managed LRU.
/// Simulated latencies approximate a 1998-era disk (~10 ms seek+rotation
/// per page I/O) so that simulated response times have a realistic
/// I/O-dominated shape. Every page I/O completes inline on the calling
/// thread, and pages are read on demand (one disk read per buffer-pool
/// miss); only concurrent clients' I/Os overlap in simulated time
/// (disk_sim.h). Pages live in memory: durability comes from the WAL and
/// checkpoint snapshots, not from the simulated disk.

#ifndef OCB_STORAGE_STORAGE_OPTIONS_H_
#define OCB_STORAGE_STORAGE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace ocb {

/// \brief Configuration of DiskSim + BufferPool + ObjectStore.
struct StorageOptions {
  /// Page size in bytes. The paper's Texas setup used 4 KB pages.
  size_t page_size = 4096;

  /// Number of frames in the buffer pool. Default 2048 frames × 4 KB = 8 MB,
  /// matching the paper's available main memory.
  size_t buffer_pool_pages = 2048;

  /// Buffer-pool page-table stripes (each with its own mutex, frames and
  /// LRU list — the unit of physical-I/O parallelism). 0 = auto:
  /// pools of >= 64 frames use the build-time default (OCB_LATCH_STRIPES,
  /// 8 unless overridden), smaller pools use 1 stripe, which reproduces
  /// the seed's exact global LRU order. Clamped to [1, buffer_pool_pages];
  /// a build that defines OCB_LATCH_STRIPES caps explicit values too.
  size_t latch_stripes = 0;

  /// First oid the object store hands out and the step between
  /// consecutive allocations. The defaults (1, 1) give the historical
  /// dense sequence 1, 2, 3, …; shard k of an N-shard ShardedDatabase
  /// uses (k + 1, N) so every oid it allocates satisfies
  /// (oid - 1) % N == k — the ShardRouter's routing function — while the
  /// *global* oid space stays dense when creation round-robins across
  /// shards. Oids are identity, not placement: changing these never
  /// affects physical layout.
  uint64_t first_oid = 1;
  uint64_t oid_stride = 1;

  /// Upper bound on one blocking lock-manager Acquire (nanoseconds);
  /// expiring returns Status::Aborted. A backstop: intra-store cycles
  /// are caught by the wait-for DFS and cross-shard ones by the
  /// coordinator's GlobalWaitGraph, so the timeout only fires for
  /// conflicts neither edge approximation can express (e.g. FIFO-gated
  /// queue waits). ShardedDatabase lowers it for its shards so even
  /// those resolve in a fraction of a second.
  uint64_t lock_wait_timeout_nanos = 2'000'000'000;

  /// Simulated latency charged per page read, in nanoseconds.
  /// Default 10 ms: a 1998 commodity disk's seek + rotational delay.
  uint64_t read_latency_nanos = 10'000'000;

  /// Simulated latency charged per page write, in nanoseconds.
  uint64_t write_latency_nanos = 10'000'000;

  /// If non-empty, a *real* redo write-ahead log is kept at this path:
  /// the commit pipeline's leader appends every committed transaction's
  /// post-images and issues one fsync per group-commit batch before any
  /// member is acknowledged. Recovery (wal::RecoverDatabase /
  /// wal::RecoverShardedDatabase) replays the log over the newest
  /// loadable checkpoint snapshot. Under ShardedDatabase this is a base
  /// path: shard k logs to "<wal_path>.shard<k>" and the coordinator's
  /// commit markers go to "<wal_path>.coord". Empty (the default) keeps
  /// no log: commits are not durable.
  std::string wal_path;

  /// If non-zero, the WAL rotates to a fresh segment once the active file
  /// exceeds this many bytes: segment 0 is `wal_path` itself, segment k>0
  /// is "<wal_path>.seg<k>". Recovery scans segments in order; a
  /// checkpoint deletes segments whose records all fall at or below the
  /// checkpoint watermark. 0 (the default) keeps one unbounded file.
  uint64_t wal_segment_bytes = 0;

  /// If non-zero, a background scheduler takes an automatic checkpoint
  /// (SaveSnapshot + WAL checkpoint record + segment pruning) every this
  /// many writer commits. The trigger is refused cleanly — retried on a
  /// later commit — whenever taking it now would violate the
  /// ColdRestart/quiesce rules (transactions holding locks or open read
  /// views). Requires wal_path to be set; 0 (default) keeps checkpoints
  /// manual-only.
  uint64_t checkpoint_interval_commits = 0;

  /// Returns InvalidArgument for nonsensical combinations.
  Status Validate() const {
    if (page_size < 128 || (page_size & (page_size - 1)) != 0) {
      return Status::InvalidArgument(
          "page_size must be a power of two >= 128");
    }
    if (buffer_pool_pages < 1) {
      return Status::InvalidArgument("buffer_pool_pages must be >= 1");
    }
    if (first_oid < 1 || oid_stride < 1) {
      return Status::InvalidArgument(
          "first_oid and oid_stride must be >= 1");
    }
    return Status::OK();
  }
};

}  // namespace ocb

#endif  // OCB_STORAGE_STORAGE_OPTIONS_H_
