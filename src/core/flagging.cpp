#include "core/flagging.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <span>
#include <tuple>

#include "common/require.hpp"
#include "common/thread_pool.hpp"  // IWYU pragma: keep (Source::pool())
#include "query/source.hpp"
#include "stats/boxplot.hpp"
#include "cluster/cluster.hpp"
#include "telemetry/frame.hpp"

namespace gpuvar {

std::string to_string(FlagReason r) {
  switch (r) {
    case FlagReason::kSlowOutlier:
      return "slow outlier";
    case FlagReason::kUnexplainedPowerDrop:
      return "unexplained power drop";
    case FlagReason::kThermalOutlier:
      return "thermal outlier";
    case FlagReason::kRepeatOffender:
      return "repeat offender";
  }
  return "unknown";
}

bool GpuFlag::has(FlagReason r) const {
  return std::find(reasons.begin(), reasons.end(), r) != reasons.end();
}

namespace {

double outside_distance(const stats::BoxSummary& box, double x) {
  if (box.range <= 0.0) return 0.0;
  if (x > box.hi_whisker) return (x - box.hi_whisker) / box.range;
  if (x < box.lo_whisker) return (box.lo_whisker - x) / box.range;
  return 0.0;
}

}  // namespace

FlagReport analyze_flags(const query::Source& source,
                         const FlagOptions& options) {
  GPUVAR_REQUIRE(!source.empty());
  const RecordFrame& frame = source.frame();
  const auto groups = group_rows_by_gpu(frame);
  const auto gpus = frame.gpus();
  // Per metric, one pool task takes every GPU's median and then the
  // population box over them, writing only its own slots. The columns
  // are resolved here, before the fan-out.
  const std::array<std::span<const double>, 3> columns{
      frame.perf_ms(), frame.power_w(), frame.temp_c()};
  std::array<std::vector<double>, 3> medians;
  std::array<stats::BoxSummary, 3> boxes;
  source.pool().parallel_for(columns.size(), [&](std::size_t k) {
    medians[k] = per_gpu_median(columns[k], groups);
    boxes[k] = stats::box_summary(medians[k]);
  });
  const auto& [perf, power, temp] = medians;
  const auto& [perf_box, power_box, temp_box] = boxes;

  // Magnitude guards: for very tight populations (e.g. power pinned
  // within a watt of TDP) the 1.5-IQR fences degenerate and would flag
  // trivial deviations, so an outlier must also clear a material margin.
  const double perf_guard = perf_box.median * 1.02;
  const double power_guard =
      power_box.median - std::max(5.0, 0.02 * power_box.median);
  const double temp_guard = temp_box.median + 5.0;

  // Per-GPU values in groups.order: GPU j is gpus[groups.order[j]].
  FlagReport report;
  for (std::size_t j = 0; j < groups.order.size(); ++j) {
    const double perf_ms = perf[j];
    const double power_w = power[j];
    const double temp_c = temp[j];
    GpuFlag flag;

    if (perf_ms > perf_box.hi_whisker && perf_ms > perf_guard) {
      flag.reasons.push_back(FlagReason::kSlowOutlier);
      flag.severity =
          std::max(flag.severity, outside_distance(perf_box, perf_ms));
    }
    const bool near_slowdown = temp_c >= options.slowdown_temp.value() - 5.0;
    const bool hot =
        (temp_c > temp_box.hi_whisker && temp_c > temp_guard) ||
        near_slowdown;
    if (power_w < power_box.lo_whisker && power_w < power_guard && !hot) {
      flag.reasons.push_back(FlagReason::kUnexplainedPowerDrop);
      flag.severity =
          std::max(flag.severity, outside_distance(power_box, power_w));
    }
    if (hot) {
      flag.reasons.push_back(FlagReason::kThermalOutlier);
      flag.severity =
          std::max(flag.severity, outside_distance(temp_box, temp_c));
    }
    if (flag.reasons.empty()) continue;
    const GpuRef& g = gpus[groups.order[j]];
    flag.gpu_index = g.gpu_index;
    flag.name = g.loc.name;
    report.gpus.push_back(std::move(flag));
  }
  std::sort(report.gpus.begin(), report.gpus.end(),
            [](const GpuFlag& a, const GpuFlag& b) {
              // Severity descending; gpu_index breaks float ties so the
              // report order never depends on the input permutation.
              return std::tie(b.severity, a.gpu_index) <
                     std::tie(a.severity, b.gpu_index);
            });

  // Cabinet-level pump signature: simultaneously slower, cooler and
  // lower-power than the population quartiles.
  std::map<int, std::vector<std::size_t>> by_cabinet;
  for (std::size_t j = 0; j < groups.order.size(); ++j) {
    by_cabinet[gpus[groups.order[j]].loc.cabinet].push_back(j);
  }
  for (const auto& [cab, members] : by_cabinet) {
    if (members.size() < 2) continue;
    int suspicious = 0;
    for (std::size_t j : members) {
      if (perf[j] > perf_box.q3 && temp[j] < temp_box.q1 &&
          power[j] < power_box.q1) {
        ++suspicious;
      }
    }
    if (suspicious >= 2 ||
        suspicious == static_cast<int>(members.size())) {
      CabinetFlag cf;
      cf.cabinet = cab;
      cf.note = std::to_string(suspicious) +
                " GPU(s) slow+cool+low-power: check cooling loop/pump and "
                "power delivery";
      report.cabinets.push_back(std::move(cf));
    }
  }
  return report;
}

std::vector<GpuFlag> repeat_offenders(std::span<const FlagReport> reports,
                                      int min_experiments) {
  GPUVAR_REQUIRE(min_experiments >= 1);
  std::map<std::size_t, std::pair<int, GpuFlag>> counts;
  for (const auto& report : reports) {
    for (const auto& flag : report.gpus) {
      auto it = counts.find(flag.gpu_index);
      if (it == counts.end()) {
        counts.emplace(flag.gpu_index, std::make_pair(1, flag));
      } else {
        it->second.first += 1;
        it->second.second.severity =
            std::max(it->second.second.severity, flag.severity);
      }
    }
  }
  std::vector<GpuFlag> out;
  for (auto& [gpu, entry] : counts) {
    if (entry.first >= min_experiments) {
      GpuFlag f = entry.second;
      f.reasons = {FlagReason::kRepeatOffender};
      out.push_back(std::move(f));
    }
  }
  std::sort(out.begin(), out.end(), [](const GpuFlag& a, const GpuFlag& b) {
    return std::tie(b.severity, a.gpu_index) <
           std::tie(a.severity, b.gpu_index);
  });
  return out;
}

FlagScore score_against_ground_truth(const Cluster& cluster,
                                     const FlagReport& report) {
  const auto truth = cluster.faulty_gpus();
  FlagScore score;
  std::vector<std::size_t> flagged;
  flagged.reserve(report.gpus.size());
  for (const auto& f : report.gpus) flagged.push_back(f.gpu_index);
  std::sort(flagged.begin(), flagged.end());

  for (std::size_t f : flagged) {
    if (std::binary_search(truth.begin(), truth.end(), f)) {
      ++score.true_positives;
    } else {
      ++score.false_positives;
    }
  }
  for (std::size_t t : truth) {
    if (!std::binary_search(flagged.begin(), flagged.end(), t)) {
      ++score.false_negatives;
    }
  }
  const int flagged_n = score.true_positives + score.false_positives;
  const int truth_n = score.true_positives + score.false_negatives;
  score.precision =
      flagged_n > 0 ? static_cast<double>(score.true_positives) / flagged_n
                    : 0.0;
  score.recall = truth_n > 0
                     ? static_cast<double>(score.true_positives) / truth_n
                     : 0.0;
  return score;
}

}  // namespace gpuvar
