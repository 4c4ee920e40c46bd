/// \file transaction.h
/// \brief OCB's workload transaction executor (paper Fig. 3 / §3.3).
///
/// Each workload transaction proceeds from a randomly chosen root object
/// up to a predefined depth:
///
///   * Set-oriented access — breadth-first on all the references
///     ([McIver & King]'s set-oriented accesses match breadth-first).
///   * Simple traversal — depth-first on all the references.
///   * Hierarchy traversal — depth-first, always following the same
///     reference type.
///   * Stochastic traversal — selects the next link at random: at each
///     step the probability to follow reference number N is p(N) = 1/2^N
///     (approaching Markov-chain access patterns, per Tsangaris &
///     Naughton).
///
/// Every transaction can be reversed, "ascending" the graphs by following
/// BackRefs instead of ORefs. Duplicates are possible along a traversal
/// (as in OO1's 3280-part traversal); nothing deduplicates.
///
/// The executor speaks the *Session API* (engine/session.h): it opens
/// one Session per executor, begins an RAII Transaction per workload
/// transaction, and uses the batched operations — Traverse runs a whole
/// walk engine-side in one call, Scan is one GetMany over the extent,
/// Update/Insert apply WriteBatches — with Commit() riding the engine's
/// group-commit pipeline. The executor is a template over the engine:
/// TransactionExecutorT<Database> drives a single store,
/// TransactionExecutorT<ShardedDatabase> the sharded engine — same
/// workload logic, the engine decides routing, locking and commit
/// protocol underneath.

#ifndef OCB_OCB_TRANSACTION_H_
#define OCB_OCB_TRANSACTION_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "ocb/parameters.h"
#include "oodb/database.h"
#include "util/rng.h"
#include "util/status.h"

namespace ocb {

/// Result of executing one transaction.
struct TransactionResult {
  TransactionType type = TransactionType::kSetOriented;
  Oid root = kInvalidOid;
  bool reversed = false;
  bool aborted = false;     ///< Deadlock victim / lock timeout, rolled back.
  bool read_only = false;   ///< Ran as an MVCC snapshot reader (ReadView).
  uint64_t objects_accessed = 0;
  uint64_t sim_nanos = 0;   ///< Simulated response time.
  uint64_t io_reads = 0;    ///< Transaction-scope page reads incurred.
  uint64_t lock_wait_nanos = 0;  ///< Wall time blocked on object locks.
  uint64_t snapshot_reads = 0;   ///< Reads served through the ReadView.
  uint64_t commit_nanos = 0;     ///< Wall time of the Commit() call
                                 ///< (incl. group-commit queue time); 0
                                 ///< for rolled-back / legacy brackets.

  /// Wall time this transaction's thread spent blocked on *latches*
  /// (physical, operation-lifetime — distinct from lock_wait_nanos above):
  /// the Database catalog latch vs page-level latches.
  uint64_t facade_wait_nanos = 0;
  uint64_t page_latch_wait_nanos = 0;

  /// Sharded-execution attribution (sharded engine only; a single
  /// Database reports 1 shard, never cross-shard, zero 2PC time): how
  /// many shards the footprint touched, whether it crossed shards, and
  /// the wall time spent in the coordinator's two-phase commit/abort.
  uint32_t shards_touched = 1;
  bool cross_shard = false;
  uint64_t twopc_nanos = 0;
};

/// True for transaction types that only read (the four traversals and
/// Scan): candidates for MVCC snapshot execution.
bool IsReadOnlyTransactionType(TransactionType type);

/// \brief Executes OCB transactions against an engine (Database or
/// ShardedDatabase) through its Session API.
///
/// Stateless apart from configuration; one executor (and thus one
/// Session) per client thread, each with its own RNG. In *transactional*
/// mode every Execute runs inside an engine transaction: object locks
/// via strict 2PL, undo-log rollback when the transaction is chosen as a
/// deadlock victim (reported through TransactionResult::aborted, not an
/// error status). Read-only transaction types additionally run as MVCC
/// snapshot readers when WorkloadParameters::mvcc_snapshot_reads is set
/// — no S locks, no lock waits, no aborts. In the default legacy mode
/// Execute behaves exactly as the seed did — no locks, never aborted.
template <typename DB>
class TransactionExecutorT {
 public:
  TransactionExecutorT(DB* db, const WorkloadParameters& params)
      : db_(db), params_(params), session_(db) {}

  /// Enables/disables the 2PL transactional path (default off).
  void set_transactional(bool on) { transactional_ = on; }
  bool transactional() const { return transactional_; }

  /// Runs one transaction of \p type from \p root. \p rng drives the
  /// stochastic traversal's link choices only.
  Result<TransactionResult> Execute(TransactionType type, Oid root,
                                    bool reversed, LewisPayneRng* rng);

  /// Draws a transaction type according to PSET..PSTOCH.
  TransactionType DrawType(LewisPayneRng* rng) const;

 private:
  DB* db_;
  const WorkloadParameters& params_;
  SessionT<DB> session_;
  bool transactional_ = false;
};

/// The single-store executor (the historical name).
using TransactionExecutor = TransactionExecutorT<Database>;

// --- Template implementation -----------------------------------------------

template <typename DB>
TransactionType TransactionExecutorT<DB>::DrawType(
    LewisPayneRng* rng) const {
  const double u = rng->NextDouble();
  double cumulative = params_.p_set;
  if (u < cumulative) return TransactionType::kSetOriented;
  cumulative += params_.p_simple;
  if (u < cumulative) return TransactionType::kSimpleTraversal;
  cumulative += params_.p_hierarchy;
  if (u < cumulative) return TransactionType::kHierarchyTraversal;
  cumulative += params_.p_stochastic;
  if (u < cumulative) return TransactionType::kStochasticTraversal;
  cumulative += params_.p_update;
  if (u < cumulative) return TransactionType::kUpdate;
  cumulative += params_.p_insert;
  if (u < cumulative) return TransactionType::kInsert;
  cumulative += params_.p_delete;
  if (u < cumulative) return TransactionType::kDelete;
  if (params_.p_scan > 0.0) return TransactionType::kScan;
  return TransactionType::kStochasticTraversal;  // Rounding fallback.
}

template <typename DB>
Result<TransactionResult> TransactionExecutorT<DB>::Execute(
    TransactionType type, Oid root, bool reversed, LewisPayneRng* rng) {
  TransactionResult result;
  result.type = type;
  result.root = root;
  result.reversed = reversed;

  const uint64_t sim_start = db_->SimNowNanos();
  const uint64_t reads_start =
      db_->IoCountersFor(IoScope::kTransaction)
          .reads.load(std::memory_order_relaxed);
  // Latch-wait accounting is thread-local (see storage/latch.h); snapshot
  // the counters so the deltas attribute to this transaction.
  const ThreadLatchWaits latch_start = CurrentThreadLatchWaits();
  auto fill_latch_waits = [&result, &latch_start]() {
    const ThreadLatchWaits& now = CurrentThreadLatchWaits();
    result.facade_wait_nanos = now.facade_nanos - latch_start.facade_nanos;
    result.page_latch_wait_nanos = now.page_nanos - latch_start.page_nanos;
  };

  // Transaction bracket: the 2PL path begins a real RAII transaction
  // (locks + undo log); read-only types become MVCC snapshot readers
  // when enabled; the legacy path only notifies the observer. The first
  // Aborted any operation returns is latched into txn_failure.
  TransactionT<DB> txn;
  Status txn_failure;
  if (transactional_) {
    result.read_only =
        params_.mvcc_snapshot_reads && IsReadOnlyTransactionType(type);
    txn = session_.Begin(result.read_only ? TxnMode::kSnapshotRead
                                          : TxnMode::k2PL);
  } else {
    txn = session_.BeginLegacy();
  }
  // Ends the transaction bracket (legacy brackets always "commit").
  auto finish = [&](bool rolled_back) {
    if (transactional_) {
      result.lock_wait_nanos = txn.lock_wait_nanos();
      result.snapshot_reads = txn.snapshot_reads();
      if (rolled_back) {
        txn.Abort();
      } else {
        Status commit = txn.Commit();
        // A sharded 2PC failpoint can turn the commit itself into an
        // abort; everything already rolled back, so report it as one.
        if (commit.IsAborted() && txn_failure.ok()) {
          txn_failure = commit;
        }
      }
      result.shards_touched = txn.shards_touched();
      result.cross_shard = txn.cross_shard();
      result.twopc_nanos = txn.twopc_nanos();
      result.commit_nanos = txn.commit_nanos();
    } else {
      txn.Commit();
    }
  };
  auto failed = [&]() { return !txn_failure.ok(); };

  auto root_obj = txn.Get(root);
  if (!root_obj.ok()) {
    if (root_obj.status().IsAborted()) {
      finish(/*rolled_back=*/true);
      result.aborted = true;
      result.sim_nanos = db_->SimNowNanos() - sim_start;
      result.io_reads = db_->IoCountersFor(IoScope::kTransaction)
                            .reads.load(std::memory_order_relaxed) -
                        reads_start;
      fill_latch_waits();
      return result;
    }
    finish(/*rolled_back=*/transactional_);
    return root_obj.status();
  }
  uint64_t accessed = 1;  // The root itself.
  switch (type) {
    case TransactionType::kSetOriented:
    case TransactionType::kSimpleTraversal:
    case TransactionType::kHierarchyTraversal:
    case TransactionType::kStochasticTraversal: {
      // One engine-side call runs the whole walk (engine/session.h).
      TraversePolicy policy;
      policy.reversed = reversed;
      uint32_t depth = 0;
      switch (type) {
        case TransactionType::kSetOriented:
          policy.kind = TraverseKind::kBreadthFirst;
          depth = params_.set_depth;
          break;
        case TransactionType::kSimpleTraversal:
          policy.kind = TraverseKind::kDepthFirst;
          depth = params_.simple_depth;
          break;
        case TransactionType::kHierarchyTraversal:
          policy.kind = TraverseKind::kHierarchy;
          policy.hierarchy_type = params_.hierarchy_ref_type;
          depth = params_.hierarchy_depth;
          break;
        default:
          policy.kind = TraverseKind::kStochastic;
          policy.rng = rng;
          depth = params_.stochastic_depth;
          break;
      }
      auto walked = txn.Traverse(root_obj.value(), depth, policy);
      if (walked.ok()) {
        accessed += *walked;
      } else if (walked.status().IsAborted()) {
        txn_failure = walked.status();
      } else {
        finish(/*rolled_back=*/transactional_);
        return walked.status();
      }
      break;
    }
    case TransactionType::kUpdate: {
      // Rewrite the root in place (attribute edit; size unchanged) as a
      // one-operation WriteBatch.
      WriteBatch batch;
      batch.Put(root_obj.value());
      auto applied = txn.Apply(std::move(batch));
      if (!applied.ok()) {
        if (applied.status().IsAborted()) {
          txn_failure = applied.status();
          break;
        }
        finish(/*rolled_back=*/transactional_);
        return applied.status();
      }
      const Status& st = applied->statuses[0];
      if (!st.ok()) {
        finish(/*rolled_back=*/transactional_);
        return st;
      }
      break;
    }
    case TransactionType::kInsert: {
      // Create a sibling of the root's class, then wire its references
      // to uniform members of the schema-declared target extents as one
      // WriteBatch (one sorted X-lock footprint pass).
      const ClassId class_id = root_obj->class_id;
      auto created = txn.Create(class_id);
      if (!created.ok()) {
        if (created.status().IsAborted()) {
          txn_failure = created.status();
          break;
        }
        finish(/*rolled_back=*/transactional_);
        return created.status();
      }
      ++accessed;
      const ClassDescriptor& cls = db_->schema().GetClass(class_id);
      WriteBatch links;
      for (uint32_t k = 0; k < cls.maxnref; ++k) {
        if (cls.cref[k] == kNullClass) continue;
        // Latched copy: a concurrent client may be growing this extent.
        const std::vector<Oid> extent = db_->ExtentSnapshot(cls.cref[k]);
        if (extent.empty()) continue;
        const Oid target = extent[static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(extent.size()) - 1))];
        links.SetReference(*created, k, target);
      }
      if (!links.empty()) {
        auto applied = txn.Apply(std::move(links));
        if (!applied.ok()) {
          if (applied.status().IsAborted()) {
            txn_failure = applied.status();
            break;
          }
          finish(/*rolled_back=*/transactional_);
          return applied.status();
        }
        for (const Status& st : applied->statuses) {
          if (st.ok()) {
            ++accessed;
          } else if (!st.IsNoSpace() && !st.IsNotFound()) {
            finish(/*rolled_back=*/transactional_);
            return st;
          }
        }
      }
      break;
    }
    case TransactionType::kDelete: {
      Status st = txn.Delete(root);
      if (!st.ok() && !st.IsNotFound()) {
        if (st.IsAborted()) {
          txn_failure = st;
          break;
        }
        finish(/*rolled_back=*/transactional_);
        return st;
      }
      break;
    }
    case TransactionType::kScan: {
      // Sequential scan of the root's class extent (HyperModel-style) as
      // ONE batched GetMany — latched extent copy first, a concurrent
      // client may mutate it. Extents are not versioned, so the raw copy
      // is *current* membership; for an MVCC snapshot reader the filtered
      // overload drops members created after the view's instant (the
      // member objects themselves already read snapshot-consistently).
      const std::vector<Oid> extent =
          txn.ExtentSnapshot(root_obj->class_id);
      auto scanned = txn.GetMany(extent);
      if (scanned.ok()) {
        accessed += scanned->size();
      } else if (scanned.status().IsAborted()) {
        txn_failure = scanned.status();
      } else {
        finish(/*rolled_back=*/transactional_);
        return scanned.status();
      }
      break;
    }
  }
  const bool rolled_back = transactional_ && failed();
  finish(rolled_back);
  result.aborted = rolled_back || (transactional_ && failed());

  result.objects_accessed = accessed;
  result.sim_nanos = db_->SimNowNanos() - sim_start;
  result.io_reads = db_->IoCountersFor(IoScope::kTransaction)
                        .reads.load(std::memory_order_relaxed) -
                    reads_start;
  fill_latch_waits();
  return result;
}

}  // namespace ocb

#endif  // OCB_OCB_TRANSACTION_H_
