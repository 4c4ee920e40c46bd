/// \file parameters.h
/// \brief OCB's parameter sets: database (paper Table 1) and workload
///        (paper Table 2), with the paper's default values.
///
/// Indexing note: the paper is 1-based (classes 1..NC, objects 1..NO); this
/// implementation is 0-based throughout (classes 0..NC-1, extent indices
/// 0..count-1). Interval parameters INFCLASS/SUPCLASS/INFREF/SUPREF are
/// expressed 0-based; the sentinel -1 means "the top of the range"
/// (NC-1 / extent end), matching the paper's NC / NO defaults.

#ifndef OCB_OCB_PARAMETERS_H_
#define OCB_OCB_PARAMETERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/distribution.h"
#include "util/status.h"

namespace ocb {

/// \brief Paper Table 1 — database parameters.
struct DatabaseParameters {
  /// NC: number of classes in the database.
  uint32_t num_classes = 20;

  /// MAXNREF(i): maximum number of references per class. Uniform default;
  /// per-class overrides via per_class_max_nref.
  uint32_t max_nref = 10;

  /// BASESIZE(i): instance base size per class, in bytes.
  uint32_t base_size = 50;

  /// Optional per-class overrides (size must be num_classes when set).
  std::vector<uint32_t> per_class_max_nref;
  std::vector<uint32_t> per_class_base_size;

  /// NO: total number of objects.
  uint64_t num_objects = 20000;

  /// NREFT: number of reference types (inheritance, composition, ...).
  uint16_t num_ref_types = 4;

  /// INFCLASS / SUPCLASS: bounds (0-based, inclusive) of the class interval
  /// a reference may target — locality of reference at the class level.
  /// -1 for sup_class means num_classes - 1.
  int64_t inf_class = 0;
  int64_t sup_class = -1;

  /// INFREF / SUPREF: bounds (0-based extent indices, inclusive) of the
  /// objects a reference may target. -1 for sup_ref means "extent end".
  int64_t inf_ref = 0;
  int64_t sup_ref = -1;

  /// DIST1..DIST4: reference types / class refs / class membership /
  /// object refs.
  DistributionSpec dist1_ref_types;
  DistributionSpec dist2_class_refs;
  DistributionSpec dist3_objects_in_classes;
  DistributionSpec dist4_object_refs;

  /// Fixed a-priori reference typing / class targets instead of DIST1/DIST2
  /// draws (the paper allows both). When set, sized [NC][MAXNREF(i)].
  std::vector<std::vector<uint16_t>> fixed_tref;
  std::vector<std::vector<int64_t>> fixed_cref;  ///< -1 entries mean NIL.

  /// Seed for the Lewis–Payne generator (database generation stream).
  uint64_t seed = 1998;

  uint32_t MaxNrefFor(uint32_t class_id) const {
    return per_class_max_nref.empty() ? max_nref
                                      : per_class_max_nref[class_id];
  }
  uint32_t BaseSizeFor(uint32_t class_id) const {
    return per_class_base_size.empty() ? base_size
                                       : per_class_base_size[class_id];
  }
  int64_t EffectiveSupClass() const {
    return sup_class < 0 ? static_cast<int64_t>(num_classes) - 1 : sup_class;
  }

  Status Validate() const;

  /// Renders the parameter set as a paper-Table-1-style ASCII table.
  std::string ToTableString() const;
};

/// The four OCB transaction classes (paper Fig. 3), plus the *generic
/// extension* of §5: the paper excluded operations that cannot benefit
/// from clustering (creation/update, scans) from the clustering-oriented
/// workload but names extending the transaction set as the path to "a
/// fully generic object-oriented benchmark". Types 4–7 implement that
/// extension; their occurrence probabilities default to 0, preserving
/// Table 2 semantics.
enum class TransactionType {
  kSetOriented = 0,      ///< Breadth-first on all references.
  kSimpleTraversal,      ///< Depth-first on all references.
  kHierarchyTraversal,   ///< Depth-first following one reference type.
  kStochasticTraversal,  ///< Random next link, p(N) = 1/2^N.
  // --- generic extension (paper §5) ---
  kUpdate,               ///< Rewrite one object (HyperModel "Editing").
  kInsert,               ///< Create + wire one object (OO1 "Insert").
  kDelete,               ///< Delete one object and unlink it.
  kScan,                 ///< Sequential scan of the root's class extent.
};
inline constexpr int kNumTransactionTypes = 8;

const char* TransactionTypeToString(TransactionType type);

/// \brief Paper Table 2 — workload parameters.
struct WorkloadParameters {
  /// SETDEPTH / SIMDEPTH / HIEDEPTH / STODEPTH.
  uint32_t set_depth = 3;
  uint32_t simple_depth = 3;
  uint32_t hierarchy_depth = 5;
  uint32_t stochastic_depth = 50;

  /// COLDN / HOTN: transactions in the cold and warm runs.
  uint64_t cold_transactions = 1000;
  uint64_t hot_transactions = 10000;

  /// THINK: average latency between transactions (simulated nanoseconds).
  uint64_t think_nanos = 0;

  /// PSET / PSIMPLE / PHIER / PSTOCH: occurrence probabilities
  /// (all eight probabilities must sum to 1).
  double p_set = 0.25;
  double p_simple = 0.25;
  double p_hierarchy = 0.25;
  double p_stochastic = 0.25;

  /// Generic-extension probabilities (paper §5; default 0 = the paper's
  /// clustering-oriented workload of Table 2).
  double p_update = 0.0;
  double p_insert = 0.0;
  double p_delete = 0.0;
  double p_scan = 0.0;

  /// RAND5 / DIST5: transaction root object distribution.
  DistributionSpec dist5_roots;

  /// Number of distinct objects transaction roots are drawn from
  /// (0 = every live object, the paper's default). A small pool models
  /// *stereotyped* workloads — OO1 and DSTC-CluB re-run their traversal
  /// from a handful of roots, which is precisely the access-pattern
  /// stereotypy the paper credits for DSTC-CluB's outsized gain (§4.3).
  /// The pool is a deterministic seed-derived sample of the live objects.
  uint64_t root_pool_size = 0;

  /// CLIENTN: number of concurrent clients.
  uint32_t client_count = 1;

  /// Runs every transaction under the 2PL concurrency-control subsystem
  /// (object locks, undo-log rollback, deadlock victims). Auto-enabled
  /// whenever client_count > 1; with a single client the default (false)
  /// keeps the seed's serialized path and its exact metrics.
  bool transactional = false;

  /// On the transactional path, runs read-only transaction types (the
  /// four traversals and Scan) as MVCC snapshot readers: a ReadView is
  /// pinned at begin, reads resolve through the version store without
  /// taking S locks, so readers never wait on writers and never abort.
  /// Disable to run readers as k2PL transactions too (they block behind
  /// writers' X locks). Ignored on the legacy path.
  bool mvcc_snapshot_reads = true;

  /// Group-commit batch-size cap of the engine's commit pipeline
  /// (ProtocolRunner forwards it at construction). 1 = per-transaction
  /// commits through the same path — the baseline the group-commit
  /// bench section compares against.
  uint32_t group_commit_max_batch = 32;

  /// Reference type followed by hierarchy traversals (paper Fig. 3
  /// "Reference type" attribute). Default 1 = composition under
  /// Schema::DefaultTraits.
  uint16_t hierarchy_ref_type = 1;

  /// Probability that a transaction runs *reversed* (ascending the graphs
  /// through BackRefs). The paper states all transactions can be reversed
  /// but leaves the mix unspecified; default 0 keeps Table 2 semantics.
  double p_reverse = 0.0;

  /// Seed for the workload random stream (independent of generation).
  uint64_t seed = 2026;

  Status Validate() const;

  /// Renders the parameter set as a paper-Table-2-style ASCII table.
  std::string ToTableString() const;
};

}  // namespace ocb

#endif  // OCB_OCB_PARAMETERS_H_
