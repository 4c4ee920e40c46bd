/// \file session.h
/// \brief Session API v2 — the public transactional surface of the engine.
///
/// This layer replaces the old duck-typed raw-handle surface (callers
/// holding a TxnHandle and calling per-object Database overloads) with
/// first-class RAII objects:
///
///   Engine (Database | ShardedDatabase)
///     └─ OpenSession()            → Session (cheap; a transaction factory)
///          └─ Begin(TxnMode)      → Transaction (RAII), e.g.
///               Begin(TxnMode::kSI) for a snapshot-isolation writer
///               ├─ Get / Put / SetReference / Delete / Create / CrossLink
///               ├─ GetMany(span)  — batched read, ONE sorted lock pass
///               ├─ Apply(WriteBatch&&) — batched writes, ONE footprint sort
///               ├─ Traverse(root, depth, policy) — whole traversal
///               │     executed engine-side in one call
///               └─ Commit() — group-commit pipeline / Abort()
///
/// Contracts:
///
///   * **RAII** — a Transaction that goes out of scope without Commit
///     auto-aborts: locks release, undo replays, pending versions seal.
///     Legacy (non-transactional) brackets auto-close the observer
///     transaction.
///   * **Typed lifecycle errors, never UB** — using a committed/aborted
///     transaction, double commit, writes through a kSnapshotRead one:
///     all return Status::InvalidArgument (checked here *and*
///     engine-side). Abort is idempotent.
///   * **Batching** — GetMany/Apply sort their lock footprint once and
///     acquire in ascending oid order (no two batches can deadlock each
///     other on static footprints); Traverse crosses the API once per
///     traversal instead of once per object. Observer fidelity is
///     preserved: every object access and link crossing still fires.
///   * **Group commit** — Commit() routes writers through the engine's
///     commit pipeline (concurrency/commit_pipeline.h): batches share
///     one version-store commit-mutex section (single store) or one
///     coordinator commit-mutex / in-flight-registry section (sharded).
///
/// Like the executor, the session layer is a template over the engine —
/// the one remaining place the engine surface is generic; everything
/// above it (workload executor, protocol runner, benches, examples,
/// tests) speaks Session/Transaction only.

#ifndef OCB_ENGINE_SESSION_H_
#define OCB_ENGINE_SESSION_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <chrono>

#include "engine/write_batch.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "oodb/database.h"
#include "sharding/sharded_database.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/status.h"

namespace ocb {

/// Traversal algorithm run engine-side by Transaction::Traverse (the
/// paper's four transaction shapes, Fig. 3).
enum class TraverseKind : uint8_t {
  kBreadthFirst = 0,  ///< Set-oriented: all references, level by level.
  kDepthFirst,        ///< Simple traversal: all references, depth-first.
  kHierarchy,         ///< One reference type only, depth-first.
  kStochastic,        ///< Random next link, p(N) = 1/2^N.
};

/// \brief How Transaction::Traverse should walk the graph.
struct TraversePolicy {
  TraverseKind kind = TraverseKind::kDepthFirst;

  /// Ascend through BackRefs instead of descending ORefs.
  bool reversed = false;

  /// Reference type followed by kHierarchy.
  RefTypeId hierarchy_type = 0;

  /// Link-choice stream for kStochastic (required for that kind).
  LewisPayneRng* rng = nullptr;
};

/// \brief RAII transaction handle (move-only). Obtained from
/// Session::Begin / Session::BeginLegacy; auto-aborts on destruction.
template <typename DB>
class TransactionT {
 public:
  using Handle = typename DB::TxnHandle;

  /// An empty (finished / moved-from) transaction; every operation on it
  /// returns InvalidArgument.
  TransactionT() = default;

  TransactionT(TransactionT&& other) noexcept
      : db_(other.db_),
        handle_(std::move(other.handle_)),
        legacy_(other.legacy_),
        mode_(other.mode_),
        begin_nanos_(other.begin_nanos_),
        commit_nanos_(other.commit_nanos_) {
    other.db_ = nullptr;
    other.legacy_ = false;
    other.begin_nanos_ = 0;
  }

  TransactionT& operator=(TransactionT&& other) noexcept {
    if (this != &other) {
      Dispose();
      db_ = other.db_;
      handle_ = std::move(other.handle_);
      legacy_ = other.legacy_;
      mode_ = other.mode_;
      begin_nanos_ = other.begin_nanos_;
      commit_nanos_ = other.commit_nanos_;
      other.db_ = nullptr;
      other.legacy_ = false;
      other.begin_nanos_ = 0;
    }
    return *this;
  }

  TransactionT(const TransactionT&) = delete;
  TransactionT& operator=(const TransactionT&) = delete;

  /// Auto-abort: an unfinished transaction rolls back (locks released,
  /// undo replayed, pending versions sealed); an unfinished legacy
  /// bracket closes the observer transaction.
  ~TransactionT() { Dispose(); }

  /// True while this handle is attached to an engine (not moved-from).
  bool valid() const { return db_ != nullptr; }

  /// True for legacy (non-transactional) brackets.
  bool legacy() const { return legacy_; }

  /// Commits through the engine's group-commit pipeline. Double commit /
  /// commit of an aborted transaction returns InvalidArgument; a
  /// Status::Aborted return (sharded 2PC failpoint) means the commit
  /// became an abort and everything rolled back.
  Status Commit() {
    if (db_ == nullptr) {
      return Status::InvalidArgument("Commit on an empty Transaction");
    }
    if (legacy_) {
      db_->EndTransaction();
      db_ = nullptr;
      return Status::OK();
    }
    // One commit-latency measurement, two sinks: commit_nanos() feeds
    // TransactionResult/PhaseMetrics (OBS-independent), the registry
    // histogram feeds Snapshot()-based reporting. Group-commit queue
    // time is included — that is the latency a client observes.
    const auto commit_start = std::chrono::steady_clock::now();
    Status st = db_->CommitTxnGrouped(handle_.get());
    commit_nanos_ = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - commit_start)
            .count());
#ifndef OCB_OBS_DISABLED
    if (obs::Enabled() && !read_only()) {
      static obs::LatencyHistogram* commit_histo =
          obs::MetricsRegistry::Global().GetHistogram("txn.commit");
      commit_histo->Record(commit_nanos_);
    }
#endif
    EmitTxnSpan();
    return st;
  }

  /// Aborts. Idempotent: aborting an already-aborted transaction is OK;
  /// aborting a committed one is InvalidArgument.
  Status Abort() {
    if (db_ == nullptr) {
      return Status::InvalidArgument("Abort on an empty Transaction");
    }
    if (legacy_) {
      db_->EndTransaction();
      db_ = nullptr;
      return Status::OK();
    }
    Status st = db_->AbortTxn(handle_.get());
    EmitTxnSpan();
    return st;
  }

  // --- Object operations ------------------------------------------------

  /// Reads one object (S lock, or the MVCC snapshot for read-only
  /// transactions). Fires OnObjectAccess.
  Result<Object> Get(Oid oid) {
    OCB_RETURN_NOT_OK(CheckUsable("Get"));
    return db_->GetObject(raw(), oid);
  }

  /// Batched read: every object of \p oids in input order, in ONE
  /// engine call — one sorted ascending S-lock pass (no two GetMany
  /// calls can deadlock each other), one latch walk, one observer pass.
  /// Vanished oids are skipped (the same tolerance single gets give
  /// concurrent deletes); Status::Aborted means deadlock victim.
  Result<std::vector<Object>> GetMany(std::span<const Oid> oids) {
    OCB_RETURN_NOT_OK(CheckUsable("GetMany"));
    std::vector<Object> out;
    OCB_RETURN_NOT_OK(db_->GetObjectsBatched(raw(), oids, &out));
    return out;
  }

  /// Class-extent membership as seen by THIS transaction: an MVCC
  /// snapshot reader gets the extent with members created after its
  /// snapshot filtered out (extents themselves are unversioned — see
  /// Database::ExtentSnapshot(ClassId, const TxnHandle*)); locking and
  /// legacy transactions get the current extent. An empty/finished
  /// handle returns the current extent too (legacy path semantics).
  std::vector<Oid> ExtentSnapshot(ClassId class_id) {
    if (db_ == nullptr) return {};
    return db_->ExtentSnapshot(class_id, raw());
  }

  /// Creates an instance of \p class_id (X lock on the fresh oid).
  Result<Oid> Create(ClassId class_id) {
    OCB_RETURN_NOT_OK(CheckUsable("Create"));
    OCB_RETURN_NOT_OK(CheckWritable("Create"));
    return db_->CreateObject(raw(), class_id);
  }

  /// Rewrites \p object in place (X lock).
  Status Put(const Object& object) {
    OCB_RETURN_NOT_OK(CheckUsable("Put"));
    OCB_RETURN_NOT_OK(CheckWritable("Put"));
    return db_->PutObject(raw(), object);
  }

  /// Sets ORef \p slot of \p from to \p to with symmetric backref upkeep.
  Status SetReference(Oid from, uint32_t slot, Oid to) {
    OCB_RETURN_NOT_OK(CheckUsable("SetReference"));
    OCB_RETURN_NOT_OK(CheckWritable("SetReference"));
    return db_->SetReference(raw(), from, slot, to);
  }

  /// Deletes \p oid and unlinks its neighborhood.
  Status Delete(Oid oid) {
    OCB_RETURN_NOT_OK(CheckUsable("Delete"));
    OCB_RETURN_NOT_OK(CheckWritable("Delete"));
    return db_->DeleteObject(raw(), oid);
  }

  /// Follows the link \p from → \p to (observer OnLinkCross + read).
  Result<Object> CrossLink(Oid from, Oid to, RefTypeId type, bool reverse) {
    OCB_RETURN_NOT_OK(CheckUsable("CrossLink"));
    return db_->CrossLink(raw(), from, to, type, reverse);
  }

  /// Applies a WriteBatch in ONE engine call: the statically known
  /// footprint is sorted and X-locked in one ascending pass, then the
  /// operations run in order (see write_batch.h for the failure
  /// semantics: Aborted kills the batch, everything else is recorded
  /// per-operation and the batch continues).
  Result<WriteBatchResult> Apply(WriteBatch&& batch) {
    OCB_RETURN_NOT_OK(CheckUsable("Apply"));
    OCB_RETURN_NOT_OK(CheckWritable("Apply"));
    OCB_RETURN_NOT_OK(
        db_->AcquireWriteFootprint(raw(), batch.StaticFootprint()));
    WriteBatchResult result;
    result.statuses.reserve(batch.size());
    for (const WriteBatch::Op& op : batch.ops()) {
      Status st;
      switch (op.kind) {
        case WriteBatch::OpKind::kPut:
          st = db_->PutObject(raw(), op.object);
          break;
        case WriteBatch::OpKind::kSetReference:
          st = db_->SetReference(raw(), op.from, op.slot, op.to);
          break;
        case WriteBatch::OpKind::kDelete:
          st = db_->DeleteObject(raw(), op.from);
          break;
      }
      if (st.IsAborted()) return st;  // Transaction is dead.
      if (st.ok()) ++result.applied;
      result.statuses.push_back(std::move(st));
    }
    return result;
  }

  /// Runs a whole traversal engine-side in one call: walks from \p root
  /// up to \p depth following \p policy, firing the usual per-link
  /// observer crossings, and returns the number of objects accessed
  /// (the root itself not included). Status::Aborted means the
  /// transaction became a deadlock victim mid-walk and must abort.
  Result<uint64_t> Traverse(const Object& root, uint32_t depth,
                            const TraversePolicy& policy) {
    OCB_RETURN_NOT_OK(CheckUsable("Traverse"));
    if (policy.kind == TraverseKind::kStochastic && policy.rng == nullptr) {
      return Status::InvalidArgument(
          "stochastic traversal requires TraversePolicy::rng");
    }
    Status failure;
    uint64_t accessed = 0;
    switch (policy.kind) {
      case TraverseKind::kBreadthFirst:
        accessed = Bfs(root, depth, policy.reversed, &failure);
        break;
      case TraverseKind::kDepthFirst:
        accessed = Dfs(root, depth, policy.reversed, &failure);
        break;
      case TraverseKind::kHierarchy:
        accessed = Hier(root, depth, policy.hierarchy_type,
                        policy.reversed, &failure);
        break;
      case TraverseKind::kStochastic:
        accessed = Stoch(root, depth, policy.reversed, policy.rng);
        break;
    }
    if (!failure.ok()) return failure;
    return accessed;
  }

  // --- Introspection / accounting --------------------------------------

  /// Engine transaction id (kInvalidTxnId for legacy brackets).
  TxnId id() const {
    return handle_ == nullptr ? kInvalidTxnId : handle_->id();
  }

  /// Lifecycle state (legacy brackets report kActive until finished).
  TxnState state() const {
    if (handle_ != nullptr) return handle_->state();
    return db_ == nullptr ? TxnState::kCommitted : TxnState::kActive;
  }

  /// True for a kSnapshotRead transaction (an MVCC snapshot reader).
  bool read_only() const {
    return !legacy_ && mode_ == TxnMode::kSnapshotRead;
  }

  /// The mode Session::Begin was called with.
  TxnMode mode() const { return mode_; }

  uint64_t lock_wait_nanos() const {
    return handle_ == nullptr ? 0 : handle_->lock_wait_nanos();
  }
  uint64_t snapshot_reads() const {
    return handle_ == nullptr ? 0 : handle_->snapshot_reads();
  }

  /// Wall time the last Commit() call took (0 before commit / for
  /// legacy brackets). Includes group-commit queue time — the latency
  /// the client actually observed.
  uint64_t commit_nanos() const { return commit_nanos_; }

  /// Sharded-execution attribution; single-store engines report the
  /// trivial values (1 shard, not cross-shard, no 2PC time).
  uint32_t shards_touched() const {
    if constexpr (requires(const Handle& h) { h.shards_touched(); }) {
      return handle_ == nullptr ? 1 : handle_->shards_touched();
    } else {
      return 1;
    }
  }
  bool cross_shard() const {
    if constexpr (requires(const Handle& h) { h.cross_shard(); }) {
      return handle_ != nullptr && handle_->cross_shard();
    } else {
      return false;
    }
  }
  uint64_t twopc_nanos() const {
    if constexpr (requires(const Handle& h) { h.twopc_nanos(); }) {
      return handle_ == nullptr ? 0 : handle_->twopc_nanos();
    } else {
      return 0;
    }
  }

 private:
  friend class SessionT<DB>;

  TransactionT(DB* db, std::unique_ptr<Handle> handle, TxnMode mode,
               bool legacy)
      : db_(db), handle_(std::move(handle)), legacy_(legacy), mode_(mode) {
#ifndef OCB_OBS_DISABLED
    // Stamp the lifetime-span start only when tracing is live (no clock
    // read otherwise). 0 means "no span pending".
    if (!legacy_ && handle_ != nullptr &&
        obs::TraceRecorder::Global().enabled()) {
      begin_nanos_ = obs::TraceRecorder::Global().NowNanos();
      if (begin_nanos_ == 0) begin_nanos_ = 1;
    }
#endif
  }

  /// The raw engine handle (nullptr selects the engine's legacy path).
  Handle* raw() const { return legacy_ ? nullptr : handle_.get(); }

  /// Destructor / move-assign cleanup: auto-abort unfinished work.
  void Dispose() {
    if (db_ == nullptr) return;
    if (legacy_) {
      db_->EndTransaction();
    } else if (handle_ != nullptr &&
               (handle_->active() || handle_->prepared())) {
      db_->AbortTxn(handle_.get());
      EmitTxnSpan();
    }
    db_ = nullptr;
  }

  /// Records the "txn" lifetime span (begin → finish) once; subsequent
  /// calls are no-ops. The span nests every lock.wait / io.miss /
  /// commit.stamp span this transaction's thread produced.
  void EmitTxnSpan() {
#ifndef OCB_OBS_DISABLED
    if (begin_nanos_ == 0) return;
    auto& rec = obs::TraceRecorder::Global();
    if (rec.enabled() && handle_ != nullptr) {
      const uint64_t end = rec.NowNanos();
      rec.RecordComplete(
          "txn", begin_nanos_,
          end >= begin_nanos_ ? end - begin_nanos_ : 0, "txn",
          handle_->id(), "ro", read_only() ? 1 : 0);
    }
    begin_nanos_ = 0;
#endif
  }

  Status CheckUsable(const char* op) const {
    if (db_ == nullptr) {
      return Status::InvalidArgument(
          Format("%s on an empty (finished or moved-from) Transaction",
                 op));
    }
    if (!legacy_ && handle_ != nullptr && !handle_->active()) {
      return Status::InvalidArgument(
          Format("%s refused: transaction %llu is %s (use-after-finish)",
                 op, (unsigned long long)handle_->id(),
                 TxnStateToString(handle_->state())));
    }
    return Status::OK();
  }

  /// API-level read-only refusal (the engine refuses as well).
  Status CheckWritable(const char* op) const {
    if (read_only()) {
      return Status::InvalidArgument(
          Format("%s refused: transaction opened in kSnapshotRead", op));
    }
    return Status::OK();
  }

  // --- Traversal engine (the paper's four shapes, ported from the
  // workload executor so they run below the API boundary) ---------------

  /// Follows reference \p index of \p from; latches the first Aborted
  /// into \p failure so walks unwind promptly.
  Result<Object> Follow(const Object& from, size_t index, bool reversed,
                        Status* failure) {
    Result<Object> result = [&]() -> Result<Object> {
      if (!reversed) {
        const Oid target = from.orefs[index];
        const ClassDescriptor& cls = db_->schema().GetClass(from.class_id);
        const RefTypeId type =
            index < cls.tref.size() ? cls.tref[index] : RefTypeId{0};
        return db_->CrossLink(raw(), from.oid, target, type,
                              /*reverse=*/false);
      }
      const Oid target = from.backrefs[index];
      return db_->CrossLink(raw(), from.oid, target, /*type=*/0,
                            /*reverse=*/true);
    }();
    if (!result.ok() && result.status().IsAborted() && failure->ok()) {
      *failure = result.status();
    }
    return result;
  }

  uint64_t Bfs(const Object& root, uint32_t depth, bool reversed,
               Status* failure) {
    // Breadth-first on all the references, level by level, duplicates
    // kept (set-oriented access).
    uint64_t accessed = 0;
    std::vector<Object> level = {root};
    for (uint32_t d = 0; d < depth && !level.empty(); ++d) {
      std::vector<Object> next;
      for (const Object& node : level) {
        const size_t fanout =
            reversed ? node.backrefs.size() : node.orefs.size();
        for (size_t i = 0; i < fanout; ++i) {
          if (!reversed && node.orefs[i] == kInvalidOid) continue;
          auto child = Follow(node, i, reversed, failure);
          if (!failure->ok()) return accessed;
          if (!child.ok()) continue;  // Vanished under a concurrent client.
          ++accessed;
          next.push_back(std::move(child).value());
        }
      }
      level = std::move(next);
    }
    return accessed;
  }

  uint64_t Dfs(const Object& node, uint32_t depth, bool reversed,
               Status* failure) {
    if (depth == 0) return 0;
    uint64_t accessed = 0;
    const size_t fanout =
        reversed ? node.backrefs.size() : node.orefs.size();
    for (size_t i = 0; i < fanout; ++i) {
      if (!reversed && node.orefs[i] == kInvalidOid) continue;
      auto child = Follow(node, i, reversed, failure);
      if (!failure->ok()) return accessed;
      if (!child.ok()) continue;
      ++accessed;
      accessed += Dfs(child.value(), depth - 1, reversed, failure);
      if (!failure->ok()) return accessed;
    }
    return accessed;
  }

  uint64_t Hier(const Object& node, uint32_t depth, RefTypeId type,
                bool reversed, Status* failure) {
    if (depth == 0) return 0;
    uint64_t accessed = 0;
    if (!reversed) {
      const ClassDescriptor& cls = db_->schema().GetClass(node.class_id);
      for (size_t i = 0; i < node.orefs.size(); ++i) {
        if (node.orefs[i] == kInvalidOid) continue;
        if (i >= cls.tref.size() || cls.tref[i] != type) continue;
        auto child = Follow(node, i, /*reversed=*/false, failure);
        if (!failure->ok()) return accessed;
        if (!child.ok()) continue;
        ++accessed;
        accessed += Hier(child.value(), depth - 1, type, reversed, failure);
        if (!failure->ok()) return accessed;
      }
      return accessed;
    }
    // Reversed hierarchy traversal ascends through BackRefs, which carry
    // no slot type, so the reverse direction follows all of them — a
    // documented approximation (see DESIGN.md §5).
    for (size_t i = 0; i < node.backrefs.size(); ++i) {
      auto child = Follow(node, i, /*reversed=*/true, failure);
      if (!failure->ok()) return accessed;
      if (!child.ok()) continue;
      ++accessed;
      accessed += Hier(child.value(), depth - 1, type, reversed, failure);
      if (!failure->ok()) return accessed;
    }
    return accessed;
  }

  uint64_t Stoch(const Object& node, uint32_t depth, bool reversed,
                 LewisPayneRng* rng) {
    // Random walk: at each step the probability of following reference
    // number N (1-based) is 1/2^N; failing every coin flip ends the
    // walk, as does a null or missing link.
    Status failure;  // A broken walk simply ends; Aborted still latches.
    uint64_t accessed = 0;
    Object current = node;
    for (uint32_t step = 0; step < depth; ++step) {
      const size_t fanout =
          reversed ? current.backrefs.size() : current.orefs.size();
      size_t chosen = fanout;  // Sentinel: no link chosen.
      for (size_t i = 0; i < fanout; ++i) {
        if (rng->Bernoulli(0.5)) {
          chosen = i;
          break;
        }
      }
      if (chosen == fanout) break;
      if (!reversed && current.orefs[chosen] == kInvalidOid) break;
      auto next = Follow(current, chosen, reversed, &failure);
      if (!next.ok()) break;
      ++accessed;
      current = std::move(next).value();
    }
    return accessed;
  }

  DB* db_ = nullptr;
  std::unique_ptr<Handle> handle_;
  bool legacy_ = false;
  TxnMode mode_ = TxnMode::k2PL;
  /// Trace-epoch stamp of Begin when the recorder was live (0 = no
  /// pending lifetime span).
  uint64_t begin_nanos_ = 0;
  /// Wall nanos of the last Commit() (accessor commit_nanos()).
  uint64_t commit_nanos_ = 0;
};

/// \brief A client's connection to an engine: a factory of RAII
/// transactions. Cheap to create (one pointer); any number of
/// transactions may be live per session, each driven by one thread.
template <typename DB>
class SessionT {
 public:
  explicit SessionT(DB* db) : db_(db) {}

  /// Begins a transaction in \p mode (see TxnMode): kSnapshotRead is an
  /// MVCC snapshot reader, k2PL/kSI/kOCC pick the writer's
  /// concurrency-control scheme.
  TransactionT<DB> Begin(TxnMode mode = TxnMode::k2PL) {
    return TransactionT<DB>(db_, db_->BeginTxn(mode), mode,
                            /*legacy=*/false);
  }

  /// Begins a *legacy* bracket: no locks, no undo, seed-exact single-
  /// threaded semantics (the CLIENTN=1 benches). Only the observer
  /// transaction boundaries fire.
  TransactionT<DB> BeginLegacy() {
    db_->BeginTransaction();
    return TransactionT<DB>(db_, nullptr, TxnMode::k2PL, /*legacy=*/true);
  }

  DB* engine() { return db_; }

 private:
  DB* db_;
};

/// The single-store session (the canonical names).
using Session = SessionT<Database>;
using Transaction = TransactionT<Database>;
using ShardedSession = SessionT<ShardedDatabase>;
using ShardedSessionTransaction = TransactionT<ShardedDatabase>;

inline SessionT<Database> Database::OpenSession() {
  return SessionT<Database>(this);
}

inline SessionT<ShardedDatabase> ShardedDatabase::OpenSession() {
  return SessionT<ShardedDatabase>(this);
}

}  // namespace ocb

#endif  // OCB_ENGINE_SESSION_H_
