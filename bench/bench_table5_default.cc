/// \file bench_table5_default.cc
/// \brief Reproduces paper Table 5: Texas/DSTC performance measured with
///        OCB under its *default* parameters (Tables 1 + 2).
///
/// Paper values: 31 I/Os before reclustering, 12 after, gain factor 2.58.
///
/// Shape targets: DSTC still clearly wins (gain > 1) but its gain under
/// the diversified four-transaction workload is markedly smaller than the
/// Table 4 gain on the stereotyped CluB traversal workload — the paper's
/// central argument for OCB's diversified workload.

#include <cstdio>

#include "bench_util.h"
#include "clustering/dstc.h"
#include "ocb/experiment.h"

int main() {
  using namespace ocb;

  bench::PrintHeader("Table 5",
                     "DSTC gain under OCB default parameters");

  ExperimentConfig config;
  config.preset = presets::Default();
  // Protocol lengths scaled 1000/10000 -> 300/1500 to keep the harness in
  // seconds; the warm-run mean stabilizes well before that.
  config.preset.workload.cold_transactions = 300;
  config.preset.workload.hot_transactions = 1500;
  config.preset.database.seed = 1998;
  config.preset.workload.seed = 1999;
  config.storage.buffer_pool_pages = 512;  // 2 MB pool vs ~11 MB database.

  DstcOptions options;
  options.observation_period_transactions = 500;
  options.selection_threshold = 1.0;
  Dstc dstc(options);
  auto result = RunBeforeAfterExperiment(config, &dstc);
  if (!result.ok()) {
    std::fprintf(stderr, "experiment failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  TextTable table({"Benchmark", "I/Os before", "I/Os after", "Gain factor",
                   "Clustering overhead I/Os"});
  table.AddRow(
      {"OCB defaults (measured)", Format("%.1f", result->ios_before()),
       Format("%.1f", result->ios_after()),
       Format("%.2f", result->gain_factor()),
       Format("%llu",
              (unsigned long long)result->clustering_overhead_io)});
  table.AddSeparator();
  table.AddRow({"OCB defaults (paper)", "31", "12", "2.58", "-"});
  bench::PrintTable(table);

  std::printf("\nper-transaction-type detail (warm run, after reclustering):\n");
  std::printf("%s",
              result->after.merged.warm.ToTableString("").c_str());
  bench::PrintNote(Format(
      "shape check: gain > 1 (%s); compare with bench_table4_club — the "
      "diversified workload's gain should be well below the CluB gain "
      "(paper: 2.58 vs 8.71-13.2). Our uniform DIST4 default builds a "
      "random expander graph, which attenuates the absolute gain (~1.1x) "
      "relative to the paper's 2.58 while preserving the direction.",
      result->gain_factor() > 1.0 ? "PASS" : "FAIL"));
  bench::PrintNote(Format(
      "DSTC stats: %llu reorganizations, %llu objects moved, %llu units, "
      "%llu observed crossings.",
      (unsigned long long)result->policy_stats.reorganizations,
      (unsigned long long)result->policy_stats.objects_moved,
      (unsigned long long)result->policy_stats.clustering_units,
      (unsigned long long)result->policy_stats.observed_crossings));
  return 0;
}
