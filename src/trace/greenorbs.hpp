// Synthetic GreenOrbs-like environment trace.
//
// The paper's evaluation replays real light (KLux) measurements from the
// GreenOrbs forest deployment (100 x 100 m^2 window, 10:00 AM Nov 24 2009).
// That trace is not redistributable, so this module synthesises the closest
// behavioural stand-in (see DESIGN.md, substitutions): forest light under a
// canopy is a smooth ambient level punctured by bright, roughly radial
// patches where gaps let direct sun through.  We model it as
//
//   light(p, t) = envelope(t) * [ base
//                               + sum_i bump_i(p, t)        (canopy gaps)
//                               + noise_amp * fbm(p) ]      (leaf texture)
//   clamped at 0,
//
// where each gap bump is a Gaussian whose centre drifts slowly (sun angle
// moving the gap projection along the ground) and whose amplitude flutters
// sinusoidally (foliage motion), and envelope(t) is the diurnal light curve
// (zero before sunrise / after sunset, peaking at solar noon).
//
// Everything is deterministic in the seed, so experiments are replayable.
#pragma once

#include <cstdint>
#include <vector>

#include "field/field.hpp"
#include "field/grid_field.hpp"
#include "field/time_varying.hpp"
#include "numerics/noise.hpp"
#include "numerics/quadrature.hpp"

namespace cps::trace {

/// Minutes since midnight for h:m — the trace's time unit.
constexpr double minutes(int hour, int minute) noexcept {
  return 60.0 * hour + minute;
}

/// Generator parameters.  Defaults reproduce a field with the same scale
/// and roughness class as the paper's Fig. 1 surface (a few KLux, several
/// sharp bright patches over a dim forest floor).
struct GreenOrbsConfig {
  num::Rect region{0.0, 0.0, 100.0, 100.0};
  std::uint64_t seed = 20091124;  ///< Date of the paper's trace window.

  int gap_count = 10;            ///< Canopy gaps (bumps).
  double base_light = 0.6;       ///< Ambient forest-floor light, KLux.
  double amplitude_min = 1.0;    ///< Gap brightness range, KLux.
  double amplitude_max = 4.0;
  double sigma_min = 5.0;        ///< Gap radius range, metres.
  double sigma_max = 16.0;
  double drift_speed = 0.08;     ///< Gap-centre drift, metres / minute.
  double flutter_fraction = 0.25;  ///< Amplitude flutter depth (0..1).
  double flutter_period = 37.0;  ///< Minutes per flutter cycle.
  double noise_amplitude = 0.15;  ///< Leaf-texture noise, KLux.
  double noise_frequency = 0.08;  ///< Noise cells per metre.

  double sunrise = minutes(6, 30);   ///< Envelope support start.
  double sunset = minutes(17, 30);   ///< Envelope support end.
};

/// The time-varying synthetic light field.
class GreenOrbsField final : public field::TimeVaryingField {
 public:
  /// Validates the config (positive ranges, sunrise < sunset, gap_count
  /// >= 0) and derives all per-gap randomness from the seed; throws
  /// std::invalid_argument on bad parameters.
  explicit GreenOrbsField(const GreenOrbsConfig& config);

  /// Diurnal envelope in [0, 1]; zero outside (sunrise, sunset).
  double envelope(double t) const noexcept;

  const GreenOrbsConfig& config() const noexcept { return config_; }

  /// Rasterises one instant into a grid frame.
  field::GridField snapshot(double t, std::size_t nx, std::size_t ny) const;

  /// Rasterises [t0, t1] every dt minutes into a replayable frame sequence
  /// (t1 inclusive when it lands on the step).  Throws
  /// std::invalid_argument when dt <= 0 or t1 < t0.
  field::FrameSequenceField record(double t0, double t1, double dt,
                                   std::size_t nx, std::size_t ny) const;

 private:
  double do_value(geo::Vec2 p, double t) const override;
  void do_value_row(double y, std::span<const double> xs, double t,
                    double* out) const override;
  /// Parameter hash: the field is a pure function of its config (all gap
  /// randomness derives from the seed), so equal configs share content.
  std::uint64_t do_content_key() const override;

  struct Gap {
    geo::Vec2 center0;       // Position at t = 0 (midnight).
    geo::Vec2 drift;         // Metres per minute.
    double amplitude = 0.0;  // Peak KLux at solar noon.
    double sigma = 0.0;
    double flutter_phase = 0.0;
  };

  /// Everything one instant fixes (defined in greenorbs.cpp).
  struct Instant;

  geo::Vec2 gap_center(const Gap& g, double t) const noexcept;
  /// The calling thread's per-instant state for (this field, t), rebuilt
  /// only when either changed since the thread's last call.  Keyed on the
  /// never-reused instance key, so a field rebuilt at a recycled address
  /// cannot read its predecessor's state.
  const Instant& instant(double t) const;

  GreenOrbsConfig config_;
  std::vector<Gap> gaps_;
  num::ValueNoise noise_;
};

}  // namespace cps::trace
