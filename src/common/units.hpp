// Dimensional types used throughout gpuvar.
//
// Every physical quantity the simulator propagates — seconds, megahertz,
// watts, degrees Celsius, volts, joules — is a distinct zero-overhead
// strong type. `Quantity<Tag>` wraps exactly one double, every operation
// is constexpr and inlines to the identical scalar arithmetic, and the
// tag makes unit confusion a *compile error*:
//
//   * construction from a raw double is explicit (`Watts{250.0}`), so a
//     bare number can never silently become a power;
//   * addition/subtraction/comparison only exist between the same unit
//     (`Watts + Celsius` does not compile — the exact bug class that
//     swapped-argument telemetry plumbing introduces);
//   * the physically meaningful cross-unit products are spelled out:
//     Watts × Seconds → Joules, Joules / Seconds → Watts,
//     Joules / Watts → Seconds; a ratio of like units is a plain double.
//
// Implementation files doing model math that has no named unit (e.g.
// MHz·s accumulators, °C/W thermal resistances) drop to doubles
// explicitly via `.value()` — the rule enforced by tools/gpuvar_lint is
// that *public header signatures* never traffic in raw doubles for
// physical quantities.
//
// Unit conventions (matching nvidia-smi / rocm-smi output):
//   time        — seconds (s); sampling intervals in seconds as well
//   frequency   — megahertz (MHz)
//   power       — watts (W)
//   temperature — degrees Celsius (°C)
//   voltage     — volts (V)
//   energy      — joules (J)
#pragma once

namespace gpuvar {

/// A zero-cost strong typedef over double, tagged by unit. Same-unit
/// arithmetic, scalar scaling, and ordering are defined here; physically
/// meaningful cross-unit rules are free operators below.
template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : v_(v) {}

  /// The raw magnitude in the unit's canonical scale. The only exit to
  /// untyped arithmetic; call sites document the unit by naming the type.
  [[nodiscard]] constexpr double value() const { return v_; }
  constexpr explicit operator double() const { return v_; }

  // --- same-unit arithmetic ---
  constexpr Quantity operator-() const { return Quantity{-v_}; }
  constexpr Quantity operator+() const { return *this; }
  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.v_ + b.v_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.v_ - b.v_};
  }
  constexpr Quantity& operator+=(Quantity o) {
    v_ += o.v_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    v_ -= o.v_;
    return *this;
  }

  // --- dimensionless scaling ---
  friend constexpr Quantity operator*(Quantity a, double k) {
    return Quantity{a.v_ * k};
  }
  friend constexpr Quantity operator*(double k, Quantity a) {
    return Quantity{k * a.v_};
  }
  friend constexpr Quantity operator/(Quantity a, double k) {
    return Quantity{a.v_ / k};
  }
  constexpr Quantity& operator*=(double k) {
    v_ *= k;
    return *this;
  }
  constexpr Quantity& operator/=(double k) {
    v_ /= k;
    return *this;
  }

  /// Ratio of like units is dimensionless.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.v_ / b.v_;
  }

  // --- ordering (same unit only) ---
  friend constexpr bool operator==(Quantity, Quantity) = default;
  friend constexpr auto operator<=>(Quantity, Quantity) = default;

 private:
  double v_ = 0.0;
};

struct TimeTag {};
struct FrequencyTag {};
struct PowerTag {};
struct TemperatureTag {};
struct VoltageTag {};
struct EnergyTag {};

using Seconds = Quantity<TimeTag>;
using MegaHertz = Quantity<FrequencyTag>;
using Watts = Quantity<PowerTag>;
using Celsius = Quantity<TemperatureTag>;
using Volts = Quantity<VoltageTag>;
using Joules = Quantity<EnergyTag>;

// --- physically meaningful cross-unit rules ---
constexpr Joules operator*(Watts p, Seconds t) {
  return Joules{p.value() * t.value()};
}
constexpr Joules operator*(Seconds t, Watts p) { return p * t; }
constexpr Watts operator/(Joules e, Seconds t) {
  return Watts{e.value() / t.value()};
}
constexpr Seconds operator/(Joules e, Watts p) {
  return Seconds{e.value() / p.value()};
}

/// Magnitude of a signed quantity (e.g. a temperature delta).
template <class Tag>
constexpr Quantity<Tag> abs(Quantity<Tag> q) {
  return q.value() < 0.0 ? -q : q;
}

/// Absolute zero — the hard floor any simulated temperature must respect;
/// the thermal model asserts against it in debug mode.
inline constexpr Celsius kAbsoluteZero{-273.15};

/// Minimum sampling interval supported by the vendor profilers the paper
/// uses (nvprof / rocm-smi): 1 ms. The telemetry sampler enforces this floor.
inline constexpr Seconds kMinSamplingInterval{1e-3};

/// Milliseconds helper for reporting (the paper reports runtimes in ms).
inline constexpr double to_ms(Seconds s) { return s.value() * 1e3; }

}  // namespace gpuvar
