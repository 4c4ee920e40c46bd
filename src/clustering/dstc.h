/// \file dstc.h
/// \brief DSTC — the Dynamic, Statistical and Tunable Clustering technique
///        (Bullat, ECOOP'96) benchmarked by the paper (§4.1).
///
/// DSTC observes database usage (inter-object link crossings) and
/// dynamically reorganizes placement. Five phases:
///
///   1. *Observation*: during a fixed Observation Period, every link
///      crossing is appended to the period's crossing log the moment it
///      happens; the log is sorted and its runs counted when the period
///      closes, which stands in for the paper's transient Observation
///      Matrix.
///   2. *Selection*: at period end, only statistically significant entries
///      (count >= selection_threshold) are kept.
///   3. *Consolidation*: selected counts are merged into a persistent
///      Consolidated Matrix, past knowledge being aged by a decay factor.
///   4. *Dynamic cluster reorganization*: consolidated statistics are used
///      to build (or rebuild) Clustering Units — ordered groups of objects
///      that should live together, grown greedily from the heaviest links
///      up to a page's worth of bytes.
///   5. *Physical clustering organization*: units are applied to disk, i.e.
///      objects are rewritten unit-by-unit onto fresh pages. Triggered when
///      the system is idle — in the harness, via Reorganize().
///
/// All thresholds are tunable (the "T" of DSTC); DstcOptions exposes them
/// and bench_dstc_ablation sweeps them.

#ifndef OCB_CLUSTERING_DSTC_H_
#define OCB_CLUSTERING_DSTC_H_

#include <cstddef>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clustering/policy.h"

namespace ocb {

/// Tunables of DSTC.
struct DstcOptions {
  /// Observation period length, in transactions.
  uint64_t observation_period_transactions = 100;

  /// Phase 2: minimum crossings for a link to survive selection.
  double selection_threshold = 2.0;

  /// Phase 3: multiplier applied to existing consolidated weights before
  /// merging a new period (1.0 = never forget, 0.0 = only last period).
  double consolidation_decay = 0.8;

  /// Phase 4: minimum consolidated weight for a link to seed/extend a
  /// clustering unit.
  double unit_link_threshold = 1.0;

  /// Phase 4: hard cap on objects per clustering unit (0 = page-bytes cap
  /// only). Prevents one hot hub from swallowing the database.
  uint64_t max_unit_objects = 0;

  /// Count reverse (BackRef) crossings toward statistics as well.
  bool observe_reverse_crossings = true;

  /// Phase 5 placement: align each clustering unit to a page boundary
  /// (no unit straddles two pages, at the cost of internal fragmentation)
  /// versus packing units back to back (dense pages; a unit may straddle
  /// a boundary). Dense packing keeps the database page count — and thus
  /// the cache-resident fraction — unchanged, which dominates when the
  /// database barely spills out of memory (the paper's regime); ablated
  /// in bench_dstc_ablation.
  bool page_align_units = false;
};

/// \brief DSTC policy implementation.
class Dstc : public ClusteringPolicy {
 public:
  explicit Dstc(DstcOptions options = DstcOptions());

  std::string name() const override { return "DSTC"; }

  // -- AccessObserver (phase 1) --
  void OnTransactionBegin() override;
  /// Counts the transaction toward the period and closes a full one. The
  /// transaction's crossings were logged when they happened: under group
  /// commit the engine runs End for every member of a batch on the
  /// leader's thread, so End must not look for anything by thread.
  void OnTransactionEnd() override;
  /// Rolled-back transactions never logically happened: their crossings
  /// are tombstoned in the crossing log, so DSTC never counts accesses the
  /// undo log erased. Aborts do not advance the period.
  void OnTransactionAbort() override;
  void OnLinkCross(Oid from, Oid to, RefTypeId type, bool reverse) override;

  /// Phases 4 + 5 (phases 2 + 3 run automatically at each period end).
  /// Safe to call with a partially elapsed period: it is closed first.
  Status Reorganize(Database* db) override;

  void ResetStatistics() override;

  /// The clustering units built by the last Reorganize (ordered object
  /// sequences); exposed for tests and reports.
  const std::vector<std::vector<Oid>>& last_units() const {
    return last_units_;
  }

  /// Consolidated matrix size (number of significant links).
  size_t consolidated_links() const { return consolidated_.size(); }

  const DstcOptions& options() const { return options_; }

 private:
  /// A directed link crossing (from, to).
  using Link = std::pair<Oid, Oid>;

  /// Phases 2 + 3: count the crossing log's runs, select the significant
  /// ones and fold them into the consolidated matrix.
  void CloseObservationPeriod();

  /// Phase 4: greedy unit construction from the consolidated matrix.
  std::vector<std::vector<Oid>> BuildClusteringUnits(Database* db) const;

  /// The calling thread's journal (see journals_).
  std::vector<size_t>* ThreadJournal();

  DstcOptions options_;
  /// Phase 1: every crossing of the open period in arrival order; an
  /// aborted transaction's crossings are overwritten by a tombstone.
  std::vector<Link> crossings_;
  /// Phase 3: consolidated weight of each directed link, sorted by link.
  std::vector<std::pair<Link, double>> consolidated_;
  uint64_t transactions_in_period_ = 0;
  std::vector<std::vector<Oid>> last_units_;

  /// The crossings_ slots that each client thread's latest transaction
  /// filled in the current period. They serve only OnTransactionAbort,
  /// which runs on the aborting thread (every callback is serialized by the
  /// Database's observer mutex). Begin empties the caller's journal and a
  /// period close empties all of them, so an abort never touches a slot of
  /// a closed period: those crossings stay consolidated.
  std::unordered_map<std::thread::id, std::vector<size_t>> journals_;
  /// One-entry cache of ThreadJournal(): a single client hits it on every
  /// crossing. Map nodes are stable, so the pointer stays valid until
  /// journals_ is cleared.
  std::thread::id cached_thread_;
  std::vector<size_t>* cached_journal_ = nullptr;
};

}  // namespace ocb

#endif  // OCB_CLUSTERING_DSTC_H_
