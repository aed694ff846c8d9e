// The associated TU: defining dead_fn here keeps it dead — liveness
// only counts references outside the header and its same-stem .cpp.
// Reading kHeaderValue, which the header defines, is a use.
#include "common/api.hpp"

namespace gpuvar::deadfix {

int used_fn() { return kHeaderValue - 2; }
int dead_fn() { return 2; }

}  // namespace gpuvar::deadfix
