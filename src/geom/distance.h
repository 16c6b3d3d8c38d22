// Distance bounds between points and rectangles.
//
// These are the geometric workhorses of privacy-aware query processing:
// - MinDist / MaxDist(point, rect) bound the distance from a query point to
//   an object known only up to its cloaked rectangle (paper Fig. 6b);
// - MinDist / MaxDist(rect, rect) bound the distance between a cloaked
//   querier and a cloaked object and drive candidate-set pruning
//   ("B and C are guaranteed nearer than A", paper Fig. 5b).

#ifndef CLOAKDB_GEOM_DISTANCE_H_
#define CLOAKDB_GEOM_DISTANCE_H_

#include "geom/point.h"
#include "geom/rect.h"

namespace cloakdb {

/// Smallest distance from `p` to any point of `r` (0 if `p` is inside).
double MinDist(const Point& p, const Rect& r);

/// Largest distance from `p` to any point of `r` (attained at a corner).
double MaxDist(const Point& p, const Rect& r);

/// Squared variants (avoid the sqrt in comparison-only code).
double MinDistSquared(const Point& p, const Rect& r);
double MaxDistSquared(const Point& p, const Rect& r);

/// Smallest distance between any point of `a` and any point of `b`
/// (0 if they intersect).
double MinDist(const Rect& a, const Rect& b);

/// Largest distance between any point of `a` and any point of `b`.
double MaxDist(const Rect& a, const Rect& b);

/// Half the diagonal of `r`: the farthest a point of `r` can be from its
/// nearest corner (the slack term of the private NN / k-NN fetch radius).
double HalfDiagonal(const Rect& r);

/// MinMaxDist(p, r): the smallest upper bound on the distance from `p` to an
/// object *known to lie somewhere in* r, given that at least one face of r
/// touches the object MBR (classic R-tree NN pruning bound). For degenerate
/// (point) rectangles this equals the point distance.
double MinMaxDist(const Point& p, const Rect& r);

}  // namespace cloakdb

#endif  // CLOAKDB_GEOM_DISTANCE_H_
