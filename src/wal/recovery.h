/// \file recovery.h
/// \brief Crash recovery: replay a redo WAL over the newest loadable
///        checkpoint snapshot.
///
/// Recovery is the read side of the durability contract the commit
/// pipeline writes (wal_writer.h, oodb/database.cc): every acknowledged
/// commit's redo record was forced before the ack, so
///
///   recovered state = newest loadable checkpoint snapshot
///                   + all logged commits past its watermark,
///                     replayed in commit-timestamp order.
///
/// Replay is idempotent (records carry post-images; upserts overwrite,
/// deletes tolerate already-gone), so recovering twice — or crashing
/// *during* recovery and recovering again — lands on the same state.
///
/// Cross-shard atomicity: a 2PC participant record is flagged
/// kCoordinated and replays ONLY if the coordinator log
/// ("<wal_path>.coord") holds a commit marker with its timestamp. The
/// coordinator forces participant records before appending the marker,
/// so marker-present implies every shard's half is durable: a cross-
/// shard commit recovers on all participating shards or on none.
///
/// Call order: construct the engine with the SAME StorageOptions
/// (including wal_path), install the schema, then Recover*. The schema
/// must be installed first so replayed creates land in their class
/// extents; a checkpoint snapshot, when one loads, re-installs the
/// persisted schema on top. Until Recover* has run, an engine whose log
/// holds earlier commits refuses writer commits (wal_recovery_pending).

#ifndef OCB_WAL_RECOVERY_H_
#define OCB_WAL_RECOVERY_H_

#include "util/status.h"

namespace ocb {

class Database;
class ShardedDatabase;

namespace wal {

/// Recovers a standalone Database from StorageOptions::wal_path. A
/// missing log is OK (nothing was ever durably committed). Leaves the
/// commit-timestamp axis past every timestamp seen in the log.
Status RecoverDatabase(Database* db);

/// Recovers every shard of \p db from "<wal_path>.shard<k>", filtering
/// kCoordinated records through the marker set read from
/// "<wal_path>.coord", then refreshes the master schema and advances the
/// coordinator's global timestamp axis past every timestamp seen in ANY
/// log — including dropped half-commits, so reissued timestamps can
/// never collide with a stale record left behind in a shard log.
Status RecoverShardedDatabase(ShardedDatabase* db);

}  // namespace wal
}  // namespace ocb

#endif  // OCB_WAL_RECOVERY_H_
