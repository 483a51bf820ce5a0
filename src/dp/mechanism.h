#ifndef VIEWREWRITE_DP_MECHANISM_H_
#define VIEWREWRITE_DP_MECHANISM_H_

#include <vector>

#include "common/random.h"
#include "common/result.h"

namespace viewrewrite {

/// The Laplace mechanism (§3.5): F̃(D) = F(D) + Lap(S(F)/ε).
///
/// Stateless; the caller supplies the deterministic random source so every
/// experiment is reproducible from a seed.
class LaplaceMechanism {
 public:
  /// Adds Laplace noise calibrated to `sensitivity` and `epsilon`.
  /// Requires sensitivity >= 0 and epsilon > 0.
  static Result<double> Release(double true_value, double sensitivity,
                                double epsilon, Random* rng);

  /// Noise scale b = S/ε.
  static Result<double> Scale(double sensitivity, double epsilon);
};

/// Publishes noisy cell totals (the identity strategy of the matrix
/// mechanism, §9). One protected individual changes the whole cell vector
/// by at most `l1_sensitivity` in L1 norm, so adding Lap(l1_sensitivity/ε)
/// to every cell is ε-differentially private: the vector release is one
/// Laplace mechanism over an L1-bounded vector-valued query.
Result<std::vector<double>> PublishIdentity(const std::vector<double>& cells,
                                            double l1_sensitivity,
                                            double epsilon, Random* rng);

}  // namespace viewrewrite

#endif  // VIEWREWRITE_DP_MECHANISM_H_
