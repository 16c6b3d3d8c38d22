#include "geom/distance.h"

#include <algorithm>
#include <cmath>

namespace cloakdb {

namespace {

// Distance from v to interval [lo, hi]; 0 inside.
double AxisGap(double v, double lo, double hi) {
  if (v < lo) return lo - v;
  if (v > hi) return v - hi;
  return 0.0;
}

// Farthest end of interval [lo, hi] from v.
double AxisFar(double v, double lo, double hi) {
  return std::max(std::abs(v - lo), std::abs(v - hi));
}

// Nearest end of interval [lo, hi] from v (used by MinMaxDist).
double AxisNearEnd(double v, double lo, double hi) {
  return std::min(std::abs(v - lo), std::abs(v - hi));
}

}  // namespace

double MinDistSquared(const Point& p, const Rect& r) {
  double dx = AxisGap(p.x, r.min_x, r.max_x);
  double dy = AxisGap(p.y, r.min_y, r.max_y);
  return dx * dx + dy * dy;
}

double MinDist(const Point& p, const Rect& r) {
  return std::sqrt(MinDistSquared(p, r));
}

double MaxDistSquared(const Point& p, const Rect& r) {
  double dx = AxisFar(p.x, r.min_x, r.max_x);
  double dy = AxisFar(p.y, r.min_y, r.max_y);
  return dx * dx + dy * dy;
}

double MaxDist(const Point& p, const Rect& r) {
  return std::sqrt(MaxDistSquared(p, r));
}

double HalfDiagonal(const Rect& r) {
  return 0.5 * std::sqrt(r.Width() * r.Width() + r.Height() * r.Height());
}

double MinDist(const Rect& a, const Rect& b) {
  double dx = 0.0;
  if (a.max_x < b.min_x)
    dx = b.min_x - a.max_x;
  else if (b.max_x < a.min_x)
    dx = a.min_x - b.max_x;
  double dy = 0.0;
  if (a.max_y < b.min_y)
    dy = b.min_y - a.max_y;
  else if (b.max_y < a.min_y)
    dy = a.min_y - b.max_y;
  return std::sqrt(dx * dx + dy * dy);
}

double MaxDist(const Rect& a, const Rect& b) {
  double dx = std::max(std::abs(a.max_x - b.min_x),
                       std::abs(b.max_x - a.min_x));
  double dy = std::max(std::abs(a.max_y - b.min_y),
                       std::abs(b.max_y - a.min_y));
  return std::sqrt(dx * dx + dy * dy);
}

double MinMaxDist(const Point& p, const Rect& r) {
  // For each axis k: clamp to the nearer face on axis k, take the farthest
  // coordinate on the other axis; the bound is the min over axes.
  double near_x = AxisNearEnd(p.x, r.min_x, r.max_x);
  double near_y = AxisNearEnd(p.y, r.min_y, r.max_y);
  double far_x = AxisFar(p.x, r.min_x, r.max_x);
  double far_y = AxisFar(p.y, r.min_y, r.max_y);
  double via_x = std::sqrt(near_x * near_x + far_y * far_y);
  double via_y = std::sqrt(far_x * far_x + near_y * near_y);
  return std::min(via_x, via_y);
}

}  // namespace cloakdb
