// Operator flagging: the paper's "early warning for system
// administrators" (§I, §VII). The study's concrete wins — TACC
// identifying a bad Longhorn node and a degraded Frontera oil pump, the
// Corona c115 replacement candidate — come from exactly these rules:
//
//   * slow outlier            — per-GPU median performance above the
//                               population's upper whisker
//   * unexplained power drop  — power below the lower whisker without a
//                               matching temperature outlier (Summit's
//                               row-H signature)
//   * thermal outlier         — temperature above the upper whisker
//   * repeat offender         — flagged in two or more independent
//                               experiments/workloads (the paper: 8 of
//                               the 10 worst SGEMM GPUs were also ResNet
//                               outliers)
//   * suspect cabinet         — a cabinet whose GPUs are simultaneously
//                               slow, cool and low-power (pump signature)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
namespace gpuvar { class Cluster; }  // was: #include "cluster/cluster.hpp"
namespace gpuvar::query { class Source; }  // was: #include "query/source.hpp"

namespace gpuvar {

enum class FlagReason {
  kSlowOutlier,
  kUnexplainedPowerDrop,
  kThermalOutlier,
  kRepeatOffender,
};

std::string to_string(FlagReason r);

struct GpuFlag {
  std::size_t gpu_index = 0;
  std::string name;
  std::vector<FlagReason> reasons;
  /// How far (in whisker-range units) the worst metric sits outside.
  double severity = 0.0;

  bool has(FlagReason r) const;
};

struct CabinetFlag {
  int cabinet = 0;
  std::string note;
};

struct FlagReport {
  std::vector<GpuFlag> gpus;       ///< sorted by descending severity
  std::vector<CabinetFlag> cabinets;
};

struct FlagOptions {
  /// The SKU's thermal-slowdown threshold. A GPU running within 5 °C of
  /// it is considered thermally throttled: its low power is *explained*
  /// (DVFS protecting the chip), so it gets a thermal flag rather than an
  /// unexplained-power-drop flag. Default: no threshold known.
  Celsius slowdown_temp{1e9};
};

/// Flags anomalies within one experiment's data (frame- or
/// dataset-backed source).
FlagReport analyze_flags(const query::Source& source,
                         const FlagOptions& options = {});

/// Cross-experiment flagging: GPUs flagged in >= `min_experiments` of the
/// reports become repeat offenders (returned sorted by severity).
std::vector<GpuFlag> repeat_offenders(std::span<const FlagReport> reports,
                                      int min_experiments = 2);

/// Scores a report against the cluster's injected ground truth.
struct FlagScore {
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  double precision = 0.0;
  double recall = 0.0;
};

FlagScore score_against_ground_truth(const Cluster& cluster,
                                     const FlagReport& report);

}  // namespace gpuvar
