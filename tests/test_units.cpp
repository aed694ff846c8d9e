#include "common/units.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "common/require.hpp"

namespace gpuvar {
namespace {

// ---------------------------------------------------------------------
// Compile-time negative checks: the entire point of Quantity<Tag> is the
// operations that do NOT compile. A requires-expression evaluates to
// false when the expression is ill-formed, so each banned operation is
// pinned here as a static_assert — if someone ever adds an implicit
// conversion or a cross-unit operator, this file stops building.
// ---------------------------------------------------------------------

template <class A, class B>
concept Addable = requires(A a, B b) { a + b; };
template <class A, class B>
concept Subtractable = requires(A a, B b) { a - b; };
template <class A, class B>
concept Comparable = requires(A a, B b) { a < b; };
template <class A, class B>
concept Multipliable = requires(A a, B b) { a* b; };
template <class A, class B>
concept Dividable = requires(A a, B b) { a / b; };

// Mixed units never add, subtract, or order.
static_assert(!Addable<Watts, Celsius>);
static_assert(!Addable<Seconds, MegaHertz>);
static_assert(!Subtractable<Joules, Watts>);
static_assert(!Comparable<Watts, Celsius>);
static_assert(!Comparable<Seconds, Joules>);

// A quantity never silently absorbs a raw double (scaling aside).
static_assert(!Addable<Watts, double>);
static_assert(!Addable<double, Watts>);
static_assert(!Subtractable<Seconds, double>);
static_assert(!Comparable<MegaHertz, double>);
static_assert(!Comparable<double, MegaHertz>);

// No implicit construction from double, no implicit decay to double.
static_assert(!std::is_convertible_v<double, Watts>);
static_assert(!std::is_convertible_v<Watts, double>);
static_assert(std::is_constructible_v<Watts, double>);  // explicit is fine

// Only the physically meaningful cross-unit products exist.
static_assert(Multipliable<Watts, Seconds>);   // -> Joules
static_assert(Multipliable<Seconds, Watts>);   // commutes
static_assert(Dividable<Joules, Seconds>);     // -> Watts
static_assert(Dividable<Joules, Watts>);       // -> Seconds
static_assert(!Multipliable<Watts, Watts>);    // W² is meaningless here
static_assert(!Multipliable<Celsius, Seconds>);
static_assert(!Dividable<Watts, Celsius>);

static_assert(std::is_same_v<decltype(Watts{1.0} * Seconds{1.0}), Joules>);
static_assert(std::is_same_v<decltype(Joules{1.0} / Seconds{1.0}), Watts>);
static_assert(std::is_same_v<decltype(Joules{1.0} / Watts{1.0}), Seconds>);
static_assert(std::is_same_v<decltype(Watts{1.0} / Watts{2.0}), double>);

// Zero-cost: the wrapper is exactly one double, trivially copyable.
static_assert(sizeof(Watts) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Watts>);
static_assert(std::is_trivially_destructible_v<Seconds>);

// Everything is constexpr end to end.
static_assert((Watts{250.0} * Seconds{2.0}).value() == 500.0);
static_assert(abs(Celsius{-4.0}) == Celsius{4.0});
static_assert(MegaHertz{1530.0} > MegaHertz{540.0});

TEST(Units, SameUnitArithmetic) {
  EXPECT_DOUBLE_EQ((Watts{250.0} + Watts{50.0}).value(), 300.0);
  EXPECT_DOUBLE_EQ((Watts{250.0} - Watts{50.0}).value(), 200.0);
  Watts w{100.0};
  w += Watts{20.0};
  w -= Watts{5.0};
  EXPECT_DOUBLE_EQ(w.value(), 115.0);
  EXPECT_DOUBLE_EQ((-Celsius{21.5}).value(), -21.5);
  EXPECT_DOUBLE_EQ((+Celsius{21.5}).value(), 21.5);
}

TEST(Units, ScalarScaling) {
  EXPECT_DOUBLE_EQ((MegaHertz{1000.0} * 1.53).value(), 1530.0);
  EXPECT_DOUBLE_EQ((2.0 * Seconds{0.25}).value(), 0.5);
  EXPECT_DOUBLE_EQ((Joules{90.0} / 3.0).value(), 30.0);
  MegaHertz f{100.0};
  f *= 3.0;
  f /= 2.0;
  EXPECT_DOUBLE_EQ(f.value(), 150.0);
}

TEST(Units, LikeUnitRatioIsDimensionless) {
  const double ratio = MegaHertz{1530.0} / MegaHertz{765.0};
  EXPECT_DOUBLE_EQ(ratio, 2.0);
}

TEST(Units, PowerTimeEnergyTriangle) {
  const Watts p{300.0};
  const Seconds t{2.0};
  const Joules e = p * t;
  EXPECT_DOUBLE_EQ(e.value(), 600.0);
  EXPECT_DOUBLE_EQ((e / t).value(), p.value());
  EXPECT_DOUBLE_EQ((e / p).value(), t.value());
  EXPECT_DOUBLE_EQ((t * p).value(), e.value());
}

TEST(Units, OrderingAndEquality) {
  EXPECT_LT(Celsius{83.0}, Celsius{87.0});
  EXPECT_GE(Watts{300.0}, Watts{300.0});
  EXPECT_EQ(Seconds{0.5}, Seconds{0.5});
  EXPECT_NE(Volts{0.8}, Volts{0.9});
}

TEST(Units, AbsoluteValue) {
  EXPECT_DOUBLE_EQ(abs(MegaHertz{-7.5}).value(), 7.5);
  EXPECT_DOUBLE_EQ(abs(MegaHertz{7.5}).value(), 7.5);
}

TEST(Units, ExplicitDoubleExit) {
  const Watts w{123.5};
  EXPECT_DOUBLE_EQ(w.value(), 123.5);
  EXPECT_DOUBLE_EQ(static_cast<double>(w), 123.5);
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_DOUBLE_EQ(Watts{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Seconds{}.value(), 0.0);
}

TEST(Units, AbsoluteZeroFloor) {
  EXPECT_DOUBLE_EQ(kAbsoluteZero.value(), -273.15);
  EXPECT_LT(kAbsoluteZero, Celsius{0.0});
}

TEST(Units, MillisecondConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_ms(Seconds{2.5}), 2500.0);
}

TEST(Units, ProfilerFloorIsOneMillisecond) {
  EXPECT_DOUBLE_EQ(kMinSamplingInterval.value(), 1e-3);
}

TEST(Require, RequireThrowsInvalidArgumentWithContext) {
  try {
    GPUVAR_REQUIRE_MSG(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_units.cpp"), std::string::npos);
  }
}

TEST(Require, AssertThrowsLogicError) {
  EXPECT_THROW(GPUVAR_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(GPUVAR_ASSERT(true));
  EXPECT_NO_THROW(GPUVAR_REQUIRE(true));
}

TEST(Require, ConditionOnlyEvaluatedOnce) {
  int calls = 0;
  auto once = [&] {
    ++calls;
    return true;
  };
  GPUVAR_REQUIRE(once());
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace gpuvar
