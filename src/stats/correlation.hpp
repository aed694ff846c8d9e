// Correlation coefficients used by the paper's scatter-plot analysis.
#pragma once

#include <span>
#include <string>
#include <vector>

namespace gpuvar::stats {

/// Pearson product-moment correlation. Requires equal sizes >= 2 and
/// non-zero variance in both samples (returns 0 when either is constant,
/// matching the convention of treating a flat series as uncorrelated).
double pearson(std::span<const double> xs, std::span<const double> ys);

/// 1-based fractional ranks of `xs`: a tie group shares the average of
/// the ranks it spans. Ranking a column once lets several Spearman
/// coefficients share it: pearson(fractional_ranks(xs),
/// fractional_ranks(ys)) is spearman(xs, ys), bit for bit. -0.0 and
/// +0.0 tie. Throws std::invalid_argument on a NaN, which has no rank.
std::vector<double> fractional_ranks(std::span<const double> xs);

/// Spearman rank correlation (Pearson over fractional ranks; ties get the
/// average rank). Throws std::invalid_argument on a NaN in either input.
double spearman(std::span<const double> xs, std::span<const double> ys);

/// Qualitative label matching the paper's prose: |rho| >= 0.9 "strong",
/// >= 0.6 "moderate", >= 0.3 "weak", else "uncorrelated".
std::string correlation_strength(double rho);

}  // namespace gpuvar::stats
