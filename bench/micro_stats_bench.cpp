// Micro-benchmarks for the statistics kernels (google-benchmark): the
// analysis pipeline must digest tens of thousands of run records quickly.
#include <benchmark/benchmark.h>

#include <cmath>

#include "gpuvar.hpp"

namespace {

std::vector<double> sample(std::size_t n, std::uint64_t seed = 1) {
  gpuvar::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(rng.normal(2500.0, 40.0));
  return xs;
}

void BM_BoxSummary(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::box_summary(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BoxSummary)->Range(1 << 8, 1 << 18);

void BM_Quantile(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::quantile(xs, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Quantile)->Range(1 << 8, 1 << 18);

void BM_Pearson(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)), 1);
  const auto ys = sample(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::pearson(xs, ys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Pearson)->Range(1 << 8, 1 << 18);

void BM_Spearman(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)), 1);
  const auto ys = sample(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::spearman(xs, ys));
  }
}
BENCHMARK(BM_Spearman)->Range(1 << 8, 1 << 16);

// --- kernel-vs-baseline pairs -------------------------------------------
// The *Baseline benchmarks preserve the pre-kernel implementations
// verbatim (Welford describe, copy-sort quantile, two-pass scalar
// pearson), so BENCH_stats.json archives the speedup of the SIMD
// kernels over exactly what they replaced at 1k, 100k and 1M rows.
// BM_PredicateMaskBaseline has no kernel pair: its one-pass row filter
// is the shape query::match_rows ships.

void BM_DescribeBaseline(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    gpuvar::stats::Descriptive d;
    d.count = xs.size();
    d.min = xs[0];
    d.max = xs[0];
    double mean_acc = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    std::size_t n = 0;
    for (double x : xs) {
      ++n;
      sum += x;
      const double delta = x - mean_acc;
      mean_acc += delta / static_cast<double>(n);
      m2 += delta * (x - mean_acc);
      d.min = std::min(d.min, x);
      d.max = std::max(d.max, x);
    }
    d.sum = sum;
    d.mean = mean_acc;
    d.variance = (n > 1) ? m2 / static_cast<double>(n - 1) : 0.0;
    d.stddev = std::sqrt(d.variance);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DescribeBaseline)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_Describe(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::describe(xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Describe)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_QuantileSortBaseline(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto v = gpuvar::stats::sorted_copy(xs);
    benchmark::DoNotOptimize(gpuvar::stats::quantile_sorted(v, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantileSortBaseline)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_QuantileSelect(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)));
  std::vector<double> scratch(xs.size());
  for (auto _ : state) {
    scratch.assign(xs.begin(), xs.end());
    benchmark::DoNotOptimize(
        gpuvar::stats::kernels::quantile_inplace(scratch, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantileSelect)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_PearsonBaseline(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)), 1);
  const auto ys = sample(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    const std::size_t n = xs.size();
    double mx = 0.0, my = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mx += xs[i];
      my += ys[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double dx = xs[i] - mx;
      const double dy = ys[i] - my;
      sxy += dx * dy;
      sxx += dx * dx;
      syy += dy * dy;
    }
    const double rho =
        (sxx == 0.0 || syy == 0.0) ? 0.0 : sxy / std::sqrt(sxx * syy);
    benchmark::DoNotOptimize(std::clamp(rho, -1.0, 1.0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PearsonBaseline)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_PearsonFused(benchmark::State& state) {
  const auto xs = sample(static_cast<std::size_t>(state.range(0)), 1);
  const auto ys = sample(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::pearson(xs, ys));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PearsonFused)->Arg(1000)->Arg(100000)->Arg(1000000);

/// The query scan's row filter (query::match_rows) shape: a per-pool
/// verdict table, an id column looked up through it, a day-range test,
/// surviving row indices.
struct FilterInput {
  std::vector<std::uint32_t> ids;
  std::vector<std::int16_t> days;
  std::vector<std::uint8_t> verdicts;
};

FilterInput filter_input(std::size_t n) {
  gpuvar::Rng rng(17);
  FilterInput in;
  in.verdicts.resize(64);
  for (auto& v : in.verdicts) {
    v = rng.uniform_index(2) == 0 ? std::uint8_t{0} : std::uint8_t{1};
  }
  in.ids.reserve(n);
  in.days.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.ids.push_back(static_cast<std::uint32_t>(rng.uniform_index(64)));
    in.days.push_back(static_cast<std::int16_t>(rng.uniform_index(7)));
  }
  return in;
}

void BM_PredicateMaskBaseline(benchmark::State& state) {
  const auto in = filter_input(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> rows;
  for (auto _ : state) {
    rows.clear();
    for (std::size_t r = 0; r < in.ids.size(); ++r) {
      if (in.verdicts[in.ids[r]] != 0 && in.days[r] >= 2 && in.days[r] <= 4) {
        rows.push_back(static_cast<std::uint32_t>(r));
      }
    }
    benchmark::DoNotOptimize(rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateMaskBaseline)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_StreamingQuantileAdd(benchmark::State& state) {
  gpuvar::StreamingQuantile q(0.0, 800.0, 0.1);
  gpuvar::Rng rng(3);
  for (auto _ : state) {
    q.add(rng.uniform(100.0, 400.0), 0.01);
  }
  benchmark::DoNotOptimize(q.total_weight());
}
BENCHMARK(BM_StreamingQuantileAdd);

void BM_NormalQuantile(benchmark::State& state) {
  double p = 0.001;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpuvar::stats::normal_quantile(p));
    p += 1e-6;
    if (p >= 0.999) p = 0.001;
  }
}
BENCHMARK(BM_NormalQuantile);

void BM_RngNormal(benchmark::State& state) {
  gpuvar::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.normal());
  }
}
BENCHMARK(BM_RngNormal);

}  // namespace

BENCHMARK_MAIN();
