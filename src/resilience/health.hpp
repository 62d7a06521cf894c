// Numerical health verification for solver outputs.
//
// Every stationary solve's result passes through these checks before it is
// accepted: a NaN/Inf scan, negative-probability clamping with tolerance
// accounting, and a residual re-check computed from the generator,
// independently of the elimination that produced the vector.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "linalg/csr.hpp"
#include "linalg/dense.hpp"
#include "resilience/solve_error.hpp"

namespace rascad::resilience {

struct HealthCheckConfig {
  /// Largest total negative probability mass clamped to zero without
  /// failing the check. Mass beyond this indicates a wrong answer, not
  /// round-off.
  double clamp_tolerance = 1e-9;
  /// The independent residual re-check accepts
  /// ||pi Q||_inf <= residual_factor * tolerance * max(1, max exit rate);
  /// the rate scaling keeps the bound meaningful for stiff chains whose
  /// generator entries span many orders of magnitude.
  double residual_factor = 1e4;
};

/// Outcome of verifying one candidate stationary vector.
struct HealthReport {
  bool ok = true;
  std::optional<SolveCause> failure;  // set when !ok
  std::string detail;
  double clamped_mass = 0.0;   // negative mass clamped (absolute value)
  double residual_inf = 0.0;   // independently recomputed ||pi Q||_inf
  double residual_l1 = 0.0;    // independently recomputed ||pi Q||_1
};

/// True iff every entry is finite.
bool all_finite(const linalg::Vector& v) noexcept;

/// Distribution-only verification (no generator residual): NaN/Inf scan,
/// clamp-and-account of negative entries, renormalization in place. Used
/// by the DTMC/SMP/transient paths whose residual metric differs from
/// ||pi Q||.
HealthReport check_distribution(linalg::Vector& pi,
                                const HealthCheckConfig& config);

/// Verifies (and repairs, where legitimate) a candidate stationary vector
/// of the chain with generator `q`: NaN/Inf scan, clamp-and-account of
/// negative entries, renormalization, then a residual re-check of ||pi Q||
/// in two norms. `pi` is modified in place (clamping + renormalization)
/// only when the checks pass far enough to make that meaningful.
HealthReport check_stationary(const linalg::CsrMatrix& q, linalg::Vector& pi,
                              const HealthCheckConfig& config,
                              double tolerance);

}  // namespace rascad::resilience
