// Suppression self-test fixture (lives under fixtures/, which the tree
// scan skips). Every violation below carries a gpuvar-lint allow()
// comment — same-line and line-above forms, a PR 1 style rule and a
// determinism rule — so none of them may fire. The only expected
// findings are `unknown-rule`: allow() naming a rule the analyzer does
// not have must itself be reported, never silently ignored — a typo, a
// name inside a comma list, or a rule the analyzer has retired.
#include <chrono>
#include <iostream>

namespace gpuvar {

inline void progress_bar() {
  // Interactive progress output is allowed to own stdout here.
  std::cout << "...\n";  // gpuvar-lint: allow(cout-in-library)
}

inline double benchmark_once() {
  // gpuvar-lint: allow(wall-clock) — real measurement, line-above form
  const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

// gpuvar-lint: allow(not-a-real-rule)
inline int typo_target() { return 0; }

// A retired rule reads like any other unknown name: the allow() is
// dead weight and is reported, not silently accepted.
// gpuvar-lint: allow(row-record-param)
inline int retired_target() { return 0; }

inline bool comma_list(long x) {
  // One allow() naming two rules suppresses both findings on the next
  // line: bare-assert and wall-clock fire on the same line here.
  // gpuvar-lint: allow(bare-assert, wall-clock)
  assert(x >= std::chrono::steady_clock::now().time_since_epoch().count());
  // A comma list with a typo'd name still suppresses the real rule and
  // still reports the unknown one — a list must never hide a typo.
  // gpuvar-lint: allow(bare-assert, also-not-a-rule)
  assert(x > 0);
  return x != 0;
}

}  // namespace gpuvar
