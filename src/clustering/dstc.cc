#include "clustering/dstc.h"

#include <algorithm>
#include <map>
#include <unordered_set>

namespace ocb {

namespace {

/// Fills an aborted transaction's crossing-log slots. It sorts first and
/// matches no real crossing (OnLinkCross drops invalid oids).
constexpr std::pair<Oid, Oid> kTombstone{kInvalidOid, kInvalidOid};

}  // namespace

Dstc::Dstc(DstcOptions options) : options_(options) {}

std::vector<size_t>* Dstc::ThreadJournal() {
  const std::thread::id self = std::this_thread::get_id();
  if (cached_journal_ == nullptr || cached_thread_ != self) {
    cached_journal_ = &journals_[self];
    cached_thread_ = self;
  }
  return cached_journal_;
}

void Dstc::OnTransactionBegin() { ThreadJournal()->clear(); }

void Dstc::OnTransactionEnd() {
  ++transactions_in_period_;
  if (transactions_in_period_ >= options_.observation_period_transactions) {
    CloseObservationPeriod();
  }
}

void Dstc::OnTransactionAbort() {
  // Only the aborting thread's own slots are tombstoned — concurrent
  // clients' in-flight crossings stay live. Aborted transactions do not
  // advance the observation period either.
  std::vector<size_t>* journal = ThreadJournal();
  for (size_t slot : *journal) crossings_[slot] = kTombstone;
  stats_.observed_crossings -= journal->size();
  journal->clear();
}

void Dstc::OnLinkCross(Oid from, Oid to, RefTypeId type, bool reverse) {
  (void)type;
  if (reverse && !options_.observe_reverse_crossings) return;
  if (from == kInvalidOid || to == kInvalidOid || from == to) return;
  ThreadJournal()->push_back(crossings_.size());
  crossings_.push_back({from, to});
  ++stats_.observed_crossings;
}

void Dstc::CloseObservationPeriod() {
  // Phase 3 first half: age old knowledge.
  for (auto& [link, weight] : consolidated_) {
    weight *= options_.consolidation_decay;
  }
  // Phase 2 (Selection): sorting the log makes each link's crossings one
  // run; runs of at least selection_threshold are significant. Phase 3
  // (Consolidation): merge them into the sorted consolidated matrix, and
  // drop entries that decayed into noise, which keeps the persistent
  // matrix bounded over long runs.
  std::sort(crossings_.begin(), crossings_.end());
  const double noise = 0.25 * options_.unit_link_threshold;
  std::vector<std::pair<Link, double>> merged;
  merged.reserve(consolidated_.size());
  auto keep = [&](const Link& link, double weight) {
    if (weight >= noise) merged.push_back({link, weight});
  };
  auto old = consolidated_.begin();
  for (size_t run = 0; run < crossings_.size();) {
    const Link link = crossings_[run];
    size_t next = run + 1;
    while (next < crossings_.size() && crossings_[next] == link) ++next;
    const double count = static_cast<double>(next - run);
    run = next;
    if (link == kTombstone || count < options_.selection_threshold) continue;
    for (; old != consolidated_.end() && old->first < link; ++old) {
      keep(old->first, old->second);
    }
    double weight = 0.0;
    if (old != consolidated_.end() && old->first == link) {
      weight = old->second;
      ++old;
    }
    keep(link, weight + count);
  }
  for (; old != consolidated_.end(); ++old) keep(old->first, old->second);
  consolidated_ = std::move(merged);
  crossings_.clear();
  for (auto& entry : journals_) entry.second.clear();
  transactions_in_period_ = 0;
}

std::vector<std::vector<Oid>> Dstc::BuildClusteringUnits(
    Database* db) const {
  // Symmetrize the consolidated matrix into undirected adjacency lists.
  struct Edge {
    Oid a, b;
    double weight;
  };
  std::unordered_map<Oid, std::vector<std::pair<Oid, double>>> adjacency;
  std::vector<Edge> edges;
  {
    std::map<Link, double> undirected;
    for (const auto& [link, weight] : consolidated_) {
      if (weight < options_.unit_link_threshold) continue;
      undirected[{std::min(link.first, link.second),
                  std::max(link.first, link.second)}] += weight;
    }
    edges.reserve(undirected.size());
    for (const auto& [link, weight] : undirected) {
      edges.push_back(Edge{link.first, link.second, weight});
      adjacency[link.first].push_back({link.second, weight});
      adjacency[link.second].push_back({link.first, weight});
    }
  }
  // Heaviest edges seed units first (deterministic tie-break on oids).
  std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
    if (x.weight != y.weight) return x.weight > y.weight;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  });
  for (auto& [oid, neighbors] : adjacency) {
    std::sort(neighbors.begin(), neighbors.end(),
              [](const auto& x, const auto& y) {
                if (x.second != y.second) return x.second > y.second;
                return x.first < y.first;
              });
  }

  const size_t page_budget = db->object_store()->max_object_size();
  std::unordered_set<Oid> clustered;
  std::vector<std::vector<Oid>> units;

  auto object_size = [&](Oid oid) -> size_t {
    auto obj = db->PeekObject(oid);
    if (!obj.ok()) return 0;
    return obj->EncodedSize();
  };

  for (const Edge& seed : edges) {
    // A unit grows from every not-yet-clustered endpoint; an edge with one
    // clustered endpoint still seeds a unit from the free one, so no
    // significant object is orphaned onto unclustered pages.
    std::vector<Oid> unit;
    for (Oid endpoint : {seed.a, seed.b}) {
      if (!clustered.count(endpoint) &&
          db->object_store()->Contains(endpoint)) {
        unit.push_back(endpoint);
      }
    }
    if (unit.empty()) continue;
    // Grow the unit by best-first expansion along the heaviest links,
    // bounded by one page's worth of bytes.
    size_t unit_bytes = 0;
    for (Oid member : unit) {
      clustered.insert(member);
      unit_bytes += object_size(member);
    }
    size_t frontier = 0;
    while (frontier < unit.size()) {
      if (options_.max_unit_objects > 0 &&
          unit.size() >= options_.max_unit_objects) {
        break;
      }
      const Oid current = unit[frontier++];
      auto it = adjacency.find(current);
      if (it == adjacency.end()) continue;
      for (const auto& [neighbor, weight] : it->second) {
        if (clustered.count(neighbor)) continue;
        if (!db->object_store()->Contains(neighbor)) continue;
        const size_t size = object_size(neighbor);
        if (unit_bytes + size > page_budget) continue;
        unit.push_back(neighbor);
        clustered.insert(neighbor);
        unit_bytes += size;
        if (options_.max_unit_objects > 0 &&
            unit.size() >= options_.max_unit_objects) {
          break;
        }
      }
    }
    units.push_back(std::move(unit));
  }
  return units;
}

Status Dstc::Reorganize(Database* db) {
  // Close a half-open observation period so fresh statistics count, if
  // any of its crossings survived the aborts.
  if (std::any_of(crossings_.begin(), crossings_.end(),
                  [](const Link& link) { return link != kTombstone; })) {
    CloseObservationPeriod();
  }
  if (consolidated_.empty()) return Status::OK();

  // Everything below — including the object-size probes of unit
  // construction — is clustering overhead I/O.
  Database::QuiesceGuard quiesce(db);
  ScopedIoScope scope(db->disk(), IoScope::kClustering);

  std::vector<std::vector<Oid>> units = BuildClusteringUnits(db);
  if (units.empty()) return Status::OK();

  // Phase 5: physical clustering. The clustering units go first, each
  // page-aligned; every object no unit claimed is then compacted behind
  // them in its previous physical order. Without this compaction the
  // database would double in pages (moved objects leave their old pages
  // three-quarters empty), which *worsens* locality — the physical
  // organization phase rewrites placement wholesale, as Texas' segment
  // reorganization does.
  uint64_t moved = 0;
  std::unordered_set<Oid> in_units;
  for (const auto& unit : units) {
    moved += unit.size();
    in_units.insert(unit.begin(), unit.end());
  }
  std::vector<Oid> leftover;
  for (Oid oid : db->object_store()->LiveOidsInPhysicalOrder()) {
    if (!in_units.count(oid)) leftover.push_back(oid);
  }
  if (options_.page_align_units) {
    std::vector<std::vector<Oid>> layout = units;
    if (!leftover.empty()) layout.push_back(std::move(leftover));
    OCB_RETURN_NOT_OK(db->object_store()->PlaceUnits(layout));
  } else {
    std::vector<Oid> sequence;
    sequence.reserve(db->object_count());
    for (const auto& unit : units) {
      sequence.insert(sequence.end(), unit.begin(), unit.end());
    }
    sequence.insert(sequence.end(), leftover.begin(), leftover.end());
    OCB_RETURN_NOT_OK(db->object_store()->PlaceSequence(sequence));
  }
  OCB_RETURN_NOT_OK(db->buffer_pool()->FlushAll());

  ++stats_.reorganizations;
  stats_.objects_moved += moved;
  stats_.clustering_units = units.size();
  last_units_ = std::move(units);
  return Status::OK();
}

void Dstc::ResetStatistics() {
  crossings_.clear();
  consolidated_.clear();
  transactions_in_period_ = 0;
  last_units_.clear();
  journals_.clear();
  cached_journal_ = nullptr;
  stats_ = ClusteringStats{};
}

}  // namespace ocb
