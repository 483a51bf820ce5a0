#include "dp/mechanism.h"

#include <cmath>

#include "common/fault_injection.h"

namespace viewrewrite {

Result<double> LaplaceMechanism::Scale(double sensitivity, double epsilon) {
  if (sensitivity < 0) {
    return Status::PrivacyError("sensitivity must be non-negative");
  }
  if (epsilon <= 0) {
    return Status::PrivacyError("epsilon must be positive");
  }
  return sensitivity / epsilon;
}

Result<double> LaplaceMechanism::Release(double true_value, double sensitivity,
                                         double epsilon, Random* rng) {
  VR_FAULT_POINT(faults::kDpMechanism);
  VR_ASSIGN_OR_RETURN(double scale, Scale(sensitivity, epsilon));
  const double released =
      scale == 0 ? true_value : true_value + rng->Laplace(scale);
  if (!std::isfinite(released)) {
    return Status::PrivacyError("mechanism produced a non-finite release");
  }
  return released;
}

Result<std::vector<double>> PublishIdentity(const std::vector<double>& cells,
                                            double l1_sensitivity,
                                            double epsilon, Random* rng) {
  VR_FAULT_POINT(faults::kDpMechanism);
  VR_ASSIGN_OR_RETURN(double scale,
                      LaplaceMechanism::Scale(l1_sensitivity, epsilon));
  std::vector<double> out;
  out.reserve(cells.size());
  for (double c : cells) {
    const double v = scale == 0 ? c : c + rng->Laplace(scale);
    if (!std::isfinite(v)) {
      return Status::PrivacyError(
          "identity mechanism produced a non-finite noisy cell");
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace viewrewrite
