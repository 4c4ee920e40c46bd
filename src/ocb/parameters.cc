#include "ocb/parameters.h"

#include <cmath>

#include "util/format.h"

namespace ocb {

const char* TransactionTypeToString(TransactionType type) {
  switch (type) {
    case TransactionType::kSetOriented:
      return "SetOriented";
    case TransactionType::kSimpleTraversal:
      return "SimpleTraversal";
    case TransactionType::kHierarchyTraversal:
      return "HierarchyTraversal";
    case TransactionType::kStochasticTraversal:
      return "StochasticTraversal";
    case TransactionType::kUpdate:
      return "Update";
    case TransactionType::kInsert:
      return "Insert";
    case TransactionType::kDelete:
      return "Delete";
    case TransactionType::kScan:
      return "Scan";
  }
  return "Unknown";
}

Status DatabaseParameters::Validate() const {
  if (num_classes == 0) {
    return Status::InvalidArgument("num_classes must be >= 1");
  }
  if (num_objects == 0) {
    return Status::InvalidArgument("num_objects must be >= 1");
  }
  if (num_ref_types == 0) {
    return Status::InvalidArgument("num_ref_types must be >= 1");
  }
  if (!per_class_max_nref.empty() &&
      per_class_max_nref.size() != num_classes) {
    return Status::InvalidArgument(
        "per_class_max_nref must have num_classes entries");
  }
  if (!per_class_base_size.empty() &&
      per_class_base_size.size() != num_classes) {
    return Status::InvalidArgument(
        "per_class_base_size must have num_classes entries");
  }
  if (inf_class < 0 ||
      inf_class > EffectiveSupClass() ||
      EffectiveSupClass() >= static_cast<int64_t>(num_classes)) {
    return Status::InvalidArgument("invalid [inf_class, sup_class] interval");
  }
  if (inf_ref < 0) {
    return Status::InvalidArgument("inf_ref must be >= 0");
  }
  if (!fixed_tref.empty() && fixed_tref.size() != num_classes) {
    return Status::InvalidArgument("fixed_tref must have num_classes rows");
  }
  if (!fixed_cref.empty() && fixed_cref.size() != num_classes) {
    return Status::InvalidArgument("fixed_cref must have num_classes rows");
  }
  OCB_RETURN_NOT_OK(dist1_ref_types.Validate());
  OCB_RETURN_NOT_OK(dist2_class_refs.Validate());
  OCB_RETURN_NOT_OK(dist3_objects_in_classes.Validate());
  OCB_RETURN_NOT_OK(dist4_object_refs.Validate());
  return Status::OK();
}

std::string DatabaseParameters::ToTableString() const {
  TextTable t({"Name", "Parameter", "Value"});
  t.AddRow({"NC", "Number of classes in the database",
            Format("%u", num_classes)});
  t.AddRow({"MAXNREF", "Maximum number of references, per class",
            Format("%u", max_nref)});
  t.AddRow({"BASESIZE", "Instances base size, per class (bytes)",
            Format("%u", base_size)});
  t.AddRow({"NO", "Total number of objects",
            Format("%llu", (unsigned long long)num_objects)});
  t.AddRow({"NREFT", "Number of reference types",
            Format("%u", num_ref_types)});
  t.AddRow({"INFCLASS", "Inferior bound, set of referenced classes",
            Format("%lld", (long long)inf_class)});
  t.AddRow({"SUPCLASS", "Superior bound, set of referenced classes",
            Format("%lld", (long long)EffectiveSupClass())});
  t.AddRow({"INFREF", "Inferior bound, set of referenced objects",
            Format("%lld", (long long)inf_ref)});
  t.AddRow({"SUPREF", "Superior bound, set of referenced objects",
            sup_ref < 0 ? "extent end" : Format("%lld", (long long)sup_ref)});
  t.AddRow({"DIST1", "Reference types random distribution",
            dist1_ref_types.ToString()});
  t.AddRow({"DIST2", "Class references random distribution",
            dist2_class_refs.ToString()});
  t.AddRow({"DIST3", "Objects in classes random distribution",
            dist3_objects_in_classes.ToString()});
  t.AddRow({"DIST4", "Objects references random distribution",
            dist4_object_refs.ToString()});
  return t.ToString();
}

Status WorkloadParameters::Validate() const {
  const double sum = p_set + p_simple + p_hierarchy + p_stochastic +
                     p_update + p_insert + p_delete + p_scan;
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument(
        Format("transaction probabilities sum to %.6f, expected 1", sum));
  }
  if (p_set < 0 || p_simple < 0 || p_hierarchy < 0 || p_stochastic < 0 ||
      p_update < 0 || p_insert < 0 || p_delete < 0 || p_scan < 0) {
    return Status::InvalidArgument("probabilities must be non-negative");
  }
  if (p_reverse < 0.0 || p_reverse > 1.0) {
    return Status::InvalidArgument("p_reverse must be in [0, 1]");
  }
  if (client_count == 0) {
    return Status::InvalidArgument("client_count must be >= 1");
  }
  OCB_RETURN_NOT_OK(dist5_roots.Validate());
  return Status::OK();
}

std::string WorkloadParameters::ToTableString() const {
  TextTable t({"Name", "Parameter", "Value"});
  t.AddRow({"SETDEPTH", "Set-oriented Access depth", Format("%u", set_depth)});
  t.AddRow({"SIMDEPTH", "Simple Traversal depth", Format("%u", simple_depth)});
  t.AddRow({"HIEDEPTH", "Hierarchy Traversal depth",
            Format("%u", hierarchy_depth)});
  t.AddRow({"STODEPTH", "Stochastic Traversal depth",
            Format("%u", stochastic_depth)});
  t.AddRow({"COLDN", "Transactions executed during cold run",
            Format("%llu", (unsigned long long)cold_transactions)});
  t.AddRow({"HOTN", "Transactions executed during warm run",
            Format("%llu", (unsigned long long)hot_transactions)});
  t.AddRow({"THINK", "Average latency time between transactions (ns)",
            Format("%llu", (unsigned long long)think_nanos)});
  t.AddRow({"PSET", "Set Access occurrence probability",
            Format("%.2f", p_set)});
  t.AddRow({"PSIMPLE", "Simple Traversal occurrence probability",
            Format("%.2f", p_simple)});
  t.AddRow({"PHIER", "Hierarchy Traversal occurrence probability",
            Format("%.2f", p_hierarchy)});
  t.AddRow({"PSTOCH", "Stochastic Traversal occurrence probability",
            Format("%.2f", p_stochastic)});
  t.AddRow({"RAND5", "Transaction root object random distribution",
            dist5_roots.ToString()});
  t.AddRow({"CLIENTN", "Number of clients", Format("%u", client_count)});
  t.AddRow({"MVCC", "Snapshot reads for read-only transactions",
            mvcc_snapshot_reads ? "on" : "off"});
  return t.ToString();
}

}  // namespace ocb
