// gpuvar — umbrella header.
//
// A characterization suite for performance/power/thermal variability in
// large-scale, accelerator-rich systems, reproducing Sinha et al.,
// "Not All GPUs Are Created Equal" (SC '22), together with the simulated
// GPU-cluster substrate it runs on.
//
// Typical flow:
//   auto cluster = gpuvar::Cluster(gpuvar::longhorn_spec());
//   auto cfg = gpuvar::default_config(cluster, gpuvar::sgemm_workload());
//   auto result = gpuvar::run_campaign(cluster, cfg);
//   auto report = gpuvar::analyze_variability(result.frame);
//
// Checkpointed campaigns can also be analyzed without materializing:
//   auto dataset = gpuvar::query::Dataset::open(dir);
//   auto report = gpuvar::analyze_variability(gpuvar::query::Source(dataset));
#pragma once

#include "cluster/allocator.hpp"   // IWYU pragma: export
#include "cluster/cluster.hpp"     // IWYU pragma: export
#include "cluster/faults.hpp"      // IWYU pragma: export
#include "workloads/tenancy.hpp"     // IWYU pragma: export
#include "cluster/topology.hpp"    // IWYU pragma: export
#include "common/csv.hpp"          // IWYU pragma: export
#include "common/location.hpp"     // IWYU pragma: export
#include "common/csv_reader.hpp"   // IWYU pragma: export
#include "common/require.hpp"      // IWYU pragma: export
#include "common/rng.hpp"          // IWYU pragma: export
#include "common/thread_pool.hpp"  // IWYU pragma: export
#include "common/units.hpp"        // IWYU pragma: export
#include "core/classify.hpp"       // IWYU pragma: export
#include "core/compare.hpp"        // IWYU pragma: export
#include "core/correlate.hpp"      // IWYU pragma: export
#include "core/engine.hpp"         // IWYU pragma: export
#include "core/experiment.hpp"     // IWYU pragma: export
#include "core/drift.hpp"          // IWYU pragma: export
#include "core/flagging.hpp"       // IWYU pragma: export
#include "core/globalpm.hpp"       // IWYU pragma: export
#include "core/markdown_report.hpp" // IWYU pragma: export
#include "core/projection.hpp"     // IWYU pragma: export
#include "core/record.hpp"         // IWYU pragma: export
#include "core/report.hpp"         // IWYU pragma: export
#include "core/scheduler.hpp"      // IWYU pragma: export
#include "core/user_impact.hpp"    // IWYU pragma: export
#include "core/variability.hpp"    // IWYU pragma: export
#include "gpu/device.hpp"          // IWYU pragma: export
#include "gpu/dvfs.hpp"            // IWYU pragma: export
#include "gpu/kernel.hpp"          // IWYU pragma: export
#include "gpu/power_model.hpp"     // IWYU pragma: export
#include "gpu/silicon.hpp"         // IWYU pragma: export
#include "gpu/sku.hpp"             // IWYU pragma: export
#include "obs/export.hpp"          // IWYU pragma: export
#include "obs/metrics.hpp"         // IWYU pragma: export
#include "obs/trace.hpp"           // IWYU pragma: export
#include "query/dataset.hpp"       // IWYU pragma: export
#include "query/source.hpp"        // IWYU pragma: export
#include "stats/ascii_plot.hpp"    // IWYU pragma: export
#include "stats/bootstrap.hpp"     // IWYU pragma: export
#include "stats/boxplot.hpp"       // IWYU pragma: export
#include "stats/correlation.hpp"   // IWYU pragma: export
#include "stats/descriptive.hpp"   // IWYU pragma: export
#include "stats/histogram.hpp"     // IWYU pragma: export
#include "stats/kernels.hpp"       // IWYU pragma: export
#include "stats/normal.hpp"        // IWYU pragma: export
#include "stats/quantile.hpp"      // IWYU pragma: export
#include "stats/sampling.hpp"      // IWYU pragma: export
#include "telemetry/counters.hpp"  // IWYU pragma: export
#include "telemetry/frame.hpp"     // IWYU pragma: export
#include "telemetry/shard.hpp"     // IWYU pragma: export
#include "telemetry/record.hpp"    // IWYU pragma: export
#include "telemetry/run_result.hpp" // IWYU pragma: export
#include "telemetry/export.hpp"    // IWYU pragma: export
#include "gpu/pmapi.hpp"     // IWYU pragma: export
#include "gpu/sampler.hpp"   // IWYU pragma: export
#include "gpu/timeseries.hpp" // IWYU pragma: export
#include "thermal/cooling.hpp"     // IWYU pragma: export
#include "thermal/thermal.hpp"     // IWYU pragma: export
#include "workloads/runner.hpp"    // IWYU pragma: export
#include "workloads/workload.hpp"  // IWYU pragma: export
