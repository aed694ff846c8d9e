// Dead-code self-test fixture tree: used_fn is called from another
// TU, UsedEnum is kept alive through a member reference alone, and
// the associated api.cpp's definitions of dead_fn must NOT count as
// liveness (the defining TU is excluded). Expect dead-symbol on
// DeadType, dead_fn, dead_alias, and DEAD_MACRO — and not on
// tolerated_dead, whose inline allow() proves the rule is
// suppressible. Mentioning dead_fn in this comment must not revive it.
// Expect test-only-symbol on test_only_fn, which only tests/ calls —
// and not on bench_fn (a bench/ file is a real user) nor on
// job_impact (only tests/ calls it too, but it is on the test-oracle
// allowlist). kHeaderValue's initializer is here, so api.cpp reading it
// once is a use and it stays alive.
#pragma once

#define DEAD_MACRO 1

namespace gpuvar::deadfix {

struct DeadType {
  int v = 0;
};

using dead_alias = int;

enum UsedEnum { kUeA, kUeB };

int used_fn();
int dead_fn();
int test_only_fn();
int bench_fn();
int job_impact();

inline int tolerated_dead() { return 9; }  // gpuvar-lint: allow(dead-symbol)

inline constexpr int kHeaderValue = 3;

}  // namespace gpuvar::deadfix
