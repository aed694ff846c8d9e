// Figure 19: PageRank (rajat30-like SpMV) on Longhorn.
//
// Paper shape: ~1% performance variation, frequency pinned, ~22% power
// variation, temperature Q1..Q3 ~8 C — memory-latency-bound work can run
// on the worst nodes without penalty (Takeaway 8).
#include "bench_util.hpp"

using namespace gpuvar;

int main() {
  bench::print_header("Figure 19", "PageRank on TACC Longhorn");
  Cluster longhorn(longhorn_spec());
  auto cfg = default_config(longhorn, pagerank_workload(20),
                            bench::runs_per_gpu());
  const auto result = run_campaign(longhorn, cfg);
  bench::print_figure_block(result, GroupBy::kCabinet);

  const auto report = analyze_variability(result.frame);
  print_section(std::cout, "Takeaway 8 checks");
  std::printf("  perf variation %.2f%% (paper ~1%%), power variation %.1f%%"
              " (paper ~22%%)\n",
              report.perf.variation_pct, report.power.variation_pct);
  const auto& counters = result.frame.counters(0);
  std::printf("  memory-dependency stalls: %.0f%% (paper: 61%%; LAMMPS 7%%,"
              " SGEMM 3%%)\n",
              counters.mem_stall_frac * 100.0);
  const auto advice = advise_placement(counters);
  std::printf("  class: %s — %s\n", to_string(advice.app_class).c_str(),
              advice.note.c_str());
  return 0;
}
