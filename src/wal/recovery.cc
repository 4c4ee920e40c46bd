#include "wal/recovery.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "concurrency/version_store.h"
#include "oodb/database.h"
#include "oodb/snapshot.h"
#include "sharding/cross_shard_coordinator.h"
#include "sharding/sharded_database.h"
#include "util/format.h"
#include "wal/wal_format.h"
#include "wal/wal_reader.h"

namespace ocb {
namespace wal {

namespace {

/// Replays one Database's log at \p wal_path. \p markers filters
/// kCoordinated records (replay iff the marker set holds the record's
/// timestamp); nullptr applies every record — the standalone engine
/// never writes coordinated ones. \p max_seen (optional) receives the
/// largest commit timestamp present in the log, applied or not.
Status ReplayDatabaseWal(Database* db, const std::string& wal_path,
                         const std::set<CommitTs>* markers,
                         CommitTs* max_seen) {
  auto scan = ReadWalSegments(wal_path);
  if (!scan.ok()) {
    // Never logged: a fresh engine with nothing durable is recovered.
    if (scan.status().code() == StatusCode::kNotFound) return Status::OK();
    return scan.status();
  }
  std::vector<WalRecord> records = std::move(scan).value().records;

  // Checkpoints newest -> oldest: the first whose snapshot file still
  // loads wins, and replay starts past its watermark. A checkpoint whose
  // snapshot is gone (or torn) is skipped — the log before it is still
  // complete, so an older checkpoint or a from-scratch replay recovers
  // the same state.
  CommitTs watermark = 0;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->type != WalRecordType::kCheckpoint) continue;
    auto cp = DecodeCheckpoint(*it);
    if (!cp.ok()) continue;
    if (LoadSnapshot(db, cp.value().snapshot_path).ok()) {
      watermark = cp.value().watermark_ts;
      break;
    }
  }

  // Commit-timestamp order. Append order already respects per-object
  // dependency order (records are appended before the writer's locks
  // release), so the stable sort only interleaves the axes of logs whose
  // timestamps come from outside (sharded deployments).
  std::vector<const WalRecord*> commits;
  commits.reserve(records.size());
  CommitTs max_ts = watermark;
  for (const WalRecord& rec : records) {
    if (rec.commit_ts > max_ts) max_ts = rec.commit_ts;
    if (rec.type == WalRecordType::kCommit) commits.push_back(&rec);
  }
  std::stable_sort(commits.begin(), commits.end(),
                   [](const WalRecord* a, const WalRecord* b) {
                     return a->commit_ts < b->commit_ts;
                   });

  CommitTs applied_ts = watermark;
  for (const WalRecord* rec : commits) {
    if (rec->commit_ts <= watermark) continue;  // Inside the checkpoint.
    if (rec->coordinated() && markers != nullptr &&
        markers->count(rec->commit_ts) == 0) {
      // 2PC half-commit whose coordinator marker never reached disk:
      // dropped here AND on every sibling shard (the marker is the
      // shared commit point), which is exactly all-or-none.
      continue;
    }
    for (const WalOp& op : rec->ops) {
      OCB_RETURN_NOT_OK(db->ApplyRedoOp(op));
    }
    if (rec->commit_ts > applied_ts) applied_ts = rec->commit_ts;
  }
  // New commits must stamp past everything replayed.
  db->version_store()->AdvanceLatest(applied_ts);
  if (max_seen != nullptr && max_ts > *max_seen) *max_seen = max_ts;
  return Status::OK();
}

}  // namespace

Status RecoverDatabase(Database* db) {
  if (db == nullptr) return Status::InvalidArgument("null db");
  const std::string& path = db->options().wal_path;
  if (path.empty()) return Status::OK();  // Durability never enabled.
  CommitTs max_seen = 0;
  OCB_RETURN_NOT_OK(ReplayDatabaseWal(db, path, nullptr, &max_seen));
  db->version_store()->AdvanceLatest(max_seen);
  db->MarkWalRecovered();
  return Status::OK();
}

Status RecoverShardedDatabase(ShardedDatabase* db) {
  if (db == nullptr) return Status::InvalidArgument("null db");
  const std::string& base = db->options().wal_path;
  if (base.empty()) return Status::OK();

  // The marker set: which 2PC commits made it to the shared commit
  // point. A missing coordinator log means no 2PC commit was ever acked.
  std::set<CommitTs> markers;
  CommitTs max_seen = 0;
  auto coord = ReadWalSegments(base + ".coord");
  if (coord.ok()) {
    for (const WalRecord& rec : coord.value().records) {
      if (rec.commit_ts > max_seen) max_seen = rec.commit_ts;
      if (rec.type == WalRecordType::kCoordMarker) {
        markers.insert(rec.commit_ts);
      }
    }
  } else if (coord.status().code() != StatusCode::kNotFound) {
    return coord.status();
  }

  for (uint32_t k = 0; k < db->shard_count(); ++k) {
    OCB_RETURN_NOT_OK(ReplayDatabaseWal(db->shard(k),
                                        base + Format(".shard%u", k),
                                        &markers, &max_seen));
  }
  // Per-shard loads may have installed a persisted schema directly on
  // the shards; re-adopt shard 0's copy as the master.
  db->SetMasterSchemaFromShards();
  db->coordinator()->AdvanceTimestampTo(max_seen);
  db->MarkWalRecovered();
  return Status::OK();
}

}  // namespace wal
}  // namespace ocb
