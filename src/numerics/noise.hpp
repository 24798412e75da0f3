// Smooth deterministic 2-D value noise.  The synthetic GreenOrbs-like trace
// layers this under the RBF bumps to mimic small-scale canopy texture.
#pragma once

#include <cstdint>
#include <span>

namespace cps::num {

/// Lattice value noise with cosine interpolation plus fractal octaves.
/// Output of `sample` is in roughly [-1, 1]; `fbm` sums `octaves` layers at
/// doubling frequency and halving amplitude (normalised back to ~[-1, 1]).
class ValueNoise {
 public:
  /// `frequency` is cells per unit distance (> 0, else
  /// std::invalid_argument).
  explicit ValueNoise(std::uint64_t seed, double frequency = 0.05);

  /// Single-octave smooth noise at (x, y).
  double sample(double x, double y) const noexcept;

  /// Fractal Brownian motion: octaves >= 1 (else std::invalid_argument).
  double fbm(double x, double y, int octaves) const;

  /// Batched fbm along one row: out[i] = fbm(xs[i], y, octaves),
  /// bit-identical.  Each octave's row-invariant y terms are computed
  /// once, and the four corner values are reused while consecutive
  /// abscissae stay in one lattice cell.  `out` must hold xs.size() slots.
  void fbm_row(double y, std::span<const double> xs, int octaves,
               double* out) const;

 private:
  double lattice(std::int64_t ix, std::int64_t iy) const noexcept;

  std::uint64_t seed_;
  double frequency_;
};

}  // namespace cps::num
