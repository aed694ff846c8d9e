// Fixture for the analysis pass (analysis-signature). Expected
// findings, in order:
//   1. analyze_* with a positional tunable list, no options struct
//   2. analyze_* whose options struct is not the last parameter
//   3. analyze_* taking its options by value
//   4. an off-shape analyze_* under an allow(): the rule is strict, so
//      the suppression must not silence it
// Decoys that must NOT fire: the unified declarations at the bottom, a
// helper that is not an entry point, and mentions of analyze_decoy( in
// comments like this one.
#pragma once

namespace gpuvar {

struct DriftOptions {
  int min_runs = 4;
};
struct DriftReport {};
class Source;

// BAD: positional tunables instead of one trailing options struct.
DriftReport analyze_drift_window(const Source& source, int window,
                                 int min_runs);

// BAD: the options struct must come last.
DriftReport analyze_drift_reordered(const DriftOptions& options,
                                    const Source& source);

// BAD: options are taken by const reference, not by value.
DriftReport analyze_drift_byvalue(const Source& source, DriftOptions options);

// BAD: analysis-signature is strict — this allow() must NOT silence it.
DriftReport analyze_drift_bare(  // gpuvar-lint: allow(analysis-signature)
    const Source& source);

// GOOD: the unified shape, with and without a default argument.
DriftReport analyze_drift(const Source& source,
                          const DriftOptions& options = {});
DriftReport analyze_drift_strict(const Source& source,
                                 const DriftOptions& options);

// GOOD: helpers are not entry points; the rule does not match them.
int drift_window_runs(const Source& source, int window);

}  // namespace gpuvar
