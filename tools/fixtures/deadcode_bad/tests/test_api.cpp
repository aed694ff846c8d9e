// The only user of test_only_fn and job_impact: a test is not a
// program user, so the first is test-only; the second is an allowlisted
// test oracle. bench_fn is called here too, and bench/ keeps it alive.
#include "common/api.hpp"

namespace gpuvar::deadfix {

int check() { return test_only_fn() + job_impact() + bench_fn(); }

}  // namespace gpuvar::deadfix
