#include "core/attack.h"

#include <algorithm>
#include <cmath>

#include "geom/distance.h"

namespace cloakdb {

Point CenterAttack::Guess(const Rect& region, Rng* rng) const {
  (void)rng;
  return region.Center();
}

Point BoundaryAttack::Guess(const Rect& region, Rng* rng) const {
  double w = region.Width();
  double h = region.Height();
  double perimeter = 2.0 * (w + h);
  if (perimeter <= 0.0) return region.Center();
  double t = rng->Uniform(0.0, perimeter);
  if (t < w) return {region.min_x + t, region.min_y};
  t -= w;
  if (t < h) return {region.max_x, region.min_y + t};
  t -= h;
  if (t < w) return {region.max_x - t, region.max_y};
  t -= w;
  return {region.min_x, region.max_y - t};
}

Point UniformAttack::Guess(const Rect& region, Rng* rng) const {
  return {rng->Uniform(region.min_x, region.max_x),
          rng->Uniform(region.min_y, region.max_y)};
}

bool CenterAttackCompromises(const Rect& region, const Point& true_location,
                             double epsilon_fraction) {
  const double half_diag = HalfDiagonal(region);
  const double err = Distance(region.Center(), true_location);
  // A degenerate region (point) always compromises a user inside it.
  if (half_diag <= 0.0) return err <= 0.0;
  return err <= epsilon_fraction * half_diag;
}

bool BoundaryAttackCompromises(const Rect& region, const Point& true_location,
                               double epsilon_fraction) {
  const double half_diag = HalfDiagonal(region);
  if (half_diag <= 0.0) return true;
  // Distance from the true location to the nearest boundary point: for a
  // point inside the rectangle, the smallest distance to any of the four
  // edges.
  const double to_edge =
      std::min(std::min(true_location.x - region.min_x,
                        region.max_x - true_location.x),
               std::min(true_location.y - region.min_y,
                        region.max_y - true_location.y));
  return std::abs(to_edge) <= epsilon_fraction * half_diag;
}

LeakageReport EvaluateLeakage(
    const Attack& attack, const std::vector<CloakObservation>& observations,
    Rng* rng, double epsilon_fraction) {
  LeakageReport report;
  report.attack_name = attack.Name();
  report.epsilon_fraction = epsilon_fraction;
  size_t hits = 0;
  for (const auto& obs : observations) {
    Point guess = attack.Guess(obs.region, rng);
    double err = Distance(guess, obs.true_location);
    double half_diag = HalfDiagonal(obs.region);
    double norm = half_diag > 0.0 ? err / half_diag : (err > 0.0 ? 1e9 : 0.0);
    report.absolute_error.Add(err);
    report.normalized_error.Add(norm);
    if (norm <= epsilon_fraction) ++hits;
  }
  report.hit_rate = observations.empty()
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(observations.size());
  return report;
}

}  // namespace cloakdb
