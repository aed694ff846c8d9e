// A bench is a real user: bench_fn stays alive through this file even
// when the files under tests/ are skipped.
#include "common/api.hpp"

namespace gpuvar::deadfix {

int time_it() { return bench_fn(); }

}  // namespace gpuvar::deadfix
