/// \file lockdep.h
/// \brief Runtime lock-order validator (lockdep-style), compiled in under
///        -DOCB_LOCKDEP=ON.
///
/// Clang Thread Safety Analysis (util/thread_annotations.h) proves that
/// guarded state is only touched under its mutex, but it is
/// intraprocedural: it cannot see that a catalog latch was taken *under* a
/// buffer-pool stripe mutex three frames up the call stack, nor check the
/// dynamic same-class rules (ascending page-id, ascending shard index).
/// This validator covers exactly that gap, the way the Linux kernel's
/// lockdep does:
///
///   * Every engine mutex belongs to a **lock class** carrying the
///     hierarchy **rank** from ARCHITECTURE.md "Ordering rules" (the rank
///     table below IS that section, in code). Instances of per-shard /
///     per-stripe classes additionally carry a **key** (shard index,
///     stripe index, page id) for the intra-class ordering rules.
///   * Each acquisition pushes onto a thread-local held-lock stack after
///     validating: (a) no held lock has a *higher* rank than the one being
///     acquired (acquire strictly top-down), (b) a second instance of the
///     same class is only legal for key-ordered classes and only in
///     strictly ascending key order, (c) the class-level edge
///     (innermost-held -> acquired) does not close a cycle in the global
///     lock-order graph built from every acquisition the process has seen.
///   * A violation produces a typed fatal report naming the acquired lock,
///     every lock the thread holds (innermost last), and — for graph
///     cycles — the held-stack recorded when the conflicting opposite
///     order was first observed. The default handler prints the report and
///     aborts; tests install their own via SetFailureHandlerForTest.
///
/// Zero cost when off: without -DOCB_LOCKDEP=ON the hooks compile to
/// nothing, ocb::Mutex is exactly std::mutex plus an empty base, and
/// kEnabled is a compile-time false (tests assert on it, mirroring the
/// OCB_OBS compile-out contract).
///
/// The checks run on the acquiring thread *before* blocking, so a seeded
/// inversion is reported even when it would not have deadlocked in that
/// particular interleaving — that is the point: the validator fails on the
/// *order*, deterministically, not on the lucky/unlucky timing.

#ifndef OCB_UTIL_LOCKDEP_H_
#define OCB_UTIL_LOCKDEP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ocb {
namespace lockdep {

#if defined(OCB_LOCKDEP_ENABLED)
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

/// Key value for locks without an intra-class ordering key.
inline constexpr uint64_t kNoKey = ~uint64_t{0};

/// Class behavior flags.
enum : uint8_t {
  /// Multiple instances of the class may be held by one thread, but only
  /// in strictly ascending key order (ascending page id for frame
  /// latches, ascending shard index for per-shard mutexes). Without this
  /// flag a second same-class acquisition is reported (single-instance
  /// classes: re-acquiring is self-deadlock, a sibling is an undocumented
  /// ordering).
  kOrderedByKey = 1,
};

/// \brief One lock class: a name, a hierarchy rank, and behavior flags.
///
/// Rank runs top-down: a thread may only acquire a mutex whose rank is
/// >= every rank it already holds (same rank only within a kOrderedByKey
/// class, ascending). Instances reference their class by address; the
/// runtime id is assigned lazily on first acquisition.
struct LockClass {
  const char* name;
  uint16_t rank;
  uint8_t flags = 0;
  mutable std::atomic<uint32_t> id{0};  ///< 0 = unassigned.
};

// ---------------------------------------------------------------------------
// The rank table — ARCHITECTURE.md "Ordering rules" as checked constants.
// Acquire strictly top-down (ascending rank); release in any order.
// Gaps of 10 leave room for future layers without renumbering.
// ---------------------------------------------------------------------------

/// Metrics-registry map mutex. Ranked above (acquired before) every
/// engine mutex because Snapshot() invokes gauge callbacks *under* it,
/// and those callbacks read engine stats() that take engine mutexes.
inline LockClass kMetricsRegistryClass{"obs.registry", 10};

/// Trace-ring dump mutex (the record path is lock-free).
inline LockClass kTraceRingClass{"obs.trace", 15};

/// Commit-pipeline queue mutex. Guards only the request queue: a leader
/// drops it before running the batch function, so every engine mutex the
/// batch work takes nests cleanly below.
inline LockClass kCommitPipelineClass{"commit.pipeline", 20};

/// Cross-shard coordinator commit mutex — before any shard's
/// version-store commit mutex, never after.
inline LockClass kCoordinatorCommitClass{"coord.commit", 50};

/// Lock-manager table stripe mutexes (key = stripe index). Logical
/// object-lock *acquisition* happens with no engine mutex held (rule 1:
/// locks before latches), but lock *release* runs inside the commit
/// choreography — CommitTxnAt's ReleaseAll executes under the
/// coordinator's commit mutex in 2PC — so the stripes rank below
/// coord.commit, and the short lookup/grant/release critical sections
/// nest nothing of the engine's below them except the wait graph. Grant
/// and release hold one stripe at a time; a request that must wait takes
/// every stripe of its own manager in ascending order for the deadlock
/// check. No thread holds stripes of two managers at once.
inline LockClass kLockManagerTableClass{"lockmgr.table", 52, kOrderedByKey};

/// Global wait-for graph: a leaf directly under the lock-manager table
/// mutexes (managers call in while holding theirs; the graph never calls
/// out).
inline LockClass kWaitGraphClass{"lockmgr.waitgraph", 54};

/// Coordinator in-flight 2PC registry.
inline LockClass kCoordinatorInflightClass{"coord.inflight", 60};

/// Version-GC wakeup mutex. Ranked above the version-store commit mutex
/// because GcLoop holds it across GarbageCollect (commit paths wake the
/// cv without taking it).
inline LockClass kGcWakeupClass{"db.gcwakeup", 65};

/// Version-store commit mutex (per shard; key = shard index): timestamp
/// allocation, whole stamping loops, snapshot opens, GC threshold.
inline LockClass kVersionStoreCommitClass{"versionstore.commit", 70,
                                          kOrderedByKey};

/// Version-store pending-by-txn map (writer-side bookkeeping).
inline LockClass kVersionStorePendingClass{"versionstore.pending", 80};

/// ReadView registry (open-snapshot multiset; taken under the commit
/// mutex by OpenSnapshot, alone by Close).
inline LockClass kReadViewRegistryClass{"readview.registry", 90};

/// Catalog latch (per shard; key = shard index): schema metadata only,
/// never held across physical I/O.
inline LockClass kCatalogLatchClass{"catalog.latch", 100, kOrderedByKey};

/// Database observer mutex (serializes AccessObserver callbacks).
inline LockClass kObserverClass{"db.observer", 110};

/// Buffer-pool quiesce gate.
inline LockClass kQuiesceClass{"pool.quiesce", 120};

/// Per-frame page latches (key = page id; multi-page operations must
/// ascend — the relocation-path rule). Ranked *above* the stripe mutexes
/// because the checked (blocking) order is frame-then-stripe: the
/// failed-miss cleanup takes its stripe mutex while holding the miss
/// frame's latch, and a two-page operation fetches its second page while
/// holding the first page's latch. The fetch path's opposite-looking
/// nesting (stripe held, then a frame) only ever *try-locks* the frame —
/// an acquisition that cannot block and is therefore exempt — precisely
/// so a latch holder waiting on the stripe mutex can never deadlock it.
inline LockClass kFrameLatchClass{"page.frame", 130, kOrderedByKey};

/// Buffer-pool page-table stripe mutexes (key = stripe index). See
/// page.frame above for why these rank below the frame latches.
inline LockClass kBufferStripeClass{"pool.stripe", 140, kOrderedByKey};

/// Striped oid-table shard mutexes (key = table stripe). May be taken
/// while holding page latches, never the reverse.
inline LockClass kOidTableClass{"store.oidmap", 150, kOrderedByKey};

/// Free-space map (leaf below placement paths).
inline LockClass kFreeSpaceClass{"store.freespace", 160};

/// Version-store chain-table shard mutexes (key = chain shard). Leaves:
/// GetVisible nests nothing under them; taken under page latches by the
/// read-validate protocol and under the commit mutex by stamping loops.
inline LockClass kVersionChainClass{"versionstore.chain", 170,
                                    kOrderedByKey};

/// DiskSim page-directory mutex.
inline LockClass kDiskDirectoryClass{"disk.directory", 180};

/// WAL writer mutex: appended to under the coordinator/commit path,
/// nests nothing of the engine's below it.
inline LockClass kWalWriterClass{"wal.writer", 220};

/// Auto-checkpoint scheduler wakeup mutex: a leaf — the loop drops it
/// before running SaveSnapshot, and NoteCommitsForCheckpoint takes it
/// with nothing held.
inline LockClass kCkptWakeupClass{"db.ckptwakeup", 230};

// ---------------------------------------------------------------------------
// Hooks (called by ocb::Mutex / ocb::SharedMutex in util/sync.h).
// ---------------------------------------------------------------------------

/// \brief A detected ordering violation, handed to the failure handler.
struct Violation {
  /// "rank-inversion", "key-order", "recursion", or "order-cycle".
  std::string kind;
  /// Class name of the lock being acquired.
  std::string acquiring;
  /// Names (with keys) of every lock the thread holds, outermost first.
  std::vector<std::string> held;
  /// For order-cycle: the held-lock names recorded when the *opposite*
  /// order was first observed (the "other stack trace" of the report).
  std::vector<std::string> prior_order;
  /// Fully formatted human-readable report.
  std::string message;
};

#if defined(OCB_LOCKDEP_ENABLED)

/// Validates and records the acquisition of \p instance of \p cls with
/// intra-class ordering key \p key. Call on the acquiring thread, before
/// blocking on the underlying mutex. \p trylock marks a successful
/// try-lock: it is pushed onto the held stack (later blocking
/// acquisitions under it are real dependencies) but is itself exempt
/// from every ordering check and records no graph edge — an acquisition
/// that cannot block cannot deadlock, and the buffer pool deliberately
/// try-locks eviction victims out of order.
void OnAcquire(const LockClass& cls, const void* instance, uint64_t key,
               bool trylock = false);

/// Records the release of \p instance (any order).
void OnRelease(const LockClass& cls, const void* instance);

/// Rebinds the intra-class key of a lock the *calling thread currently
/// holds* (a frame latch keyed by whichever page the frame caches is
/// rebound at install time, under its own exclusive hold). No-op when the
/// thread does not hold \p instance.
void OnSetKey(const void* instance, uint64_t key);

/// Number of locks the calling thread currently holds (tests).
size_t HeldCount();

/// Installs a failure handler (replacing print-and-abort); nullptr
/// restores the default. Returns the previous handler. Tests only.
using FailureHandler = std::function<void(const Violation&)>;
void SetFailureHandlerForTest(FailureHandler handler);

/// Drops every recorded class-level edge (tests that deliberately seed a
/// bad order clean up after themselves so later tests see a pristine
/// graph).
void ResetGraphForTest();

#else  // !OCB_LOCKDEP_ENABLED — every hook compiles to nothing.

inline void OnAcquire(const LockClass&, const void*, uint64_t,
                      bool = false) {}
inline void OnRelease(const LockClass&, const void*) {}
inline void OnSetKey(const void*, uint64_t) {}
inline size_t HeldCount() { return 0; }
using FailureHandler = std::function<void(const Violation&)>;
inline void SetFailureHandlerForTest(FailureHandler) {}
inline void ResetGraphForTest() {}

#endif  // OCB_LOCKDEP_ENABLED

}  // namespace lockdep
}  // namespace ocb

#endif  // OCB_UTIL_LOCKDEP_H_
