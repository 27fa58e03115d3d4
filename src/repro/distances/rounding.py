"""The one prune rule and its mirror: what a computed comparison may conclude.

Every distance is computed in floating point, and so is every lower bound,
bound-table entry and triangle difference that an index compares with a
radius.  ``bound > radius`` could therefore drop a pair whose computed value
*equals* the radius, and ``d(q, p) + margin <= radius`` could accept one
whose computed value exceeds it.  :func:`prunes` decides every prune of the
package and :func:`accepts` every accept made without measuring.  Each
clears a slack that is proven in :func:`prunes` and costs O(1): it reads
only numbers the comparison already holds (the radius, a margin) and a
width taken from the operands' shapes.

Neither needs a magnitude of the operands.  The C sweeps are the direct
recurrences, so a computed distance rounds relative to itself.  Their
row-minimum abandon is exact at the caller's cutoff (see ``_kernels.c``),
and a *measured* value is compared with the radius as it is.  Members whose
values are integer counts (``integer_valued``) compare exactly.
"""

from __future__ import annotations

from repro.distances.base import Distance


def rounding_slack(radius, magnitude, width: int):
    """``32 * width * u * (|radius| + magnitude)``, ``u = 2**-53`` the unit
    roundoff of float64; see :func:`prunes`."""
    return 32.0 * width * 2.0**-53 * (abs(radius) + magnitude)


def prunes(distance: Distance, lower, radius, magnitude, width: int):
    """Whether ``lower``, a computed lower bound on a distance, proves it beyond ``radius``.

    ``lower`` is a registered bound or a bound-table entry (``magnitude``
    0), or a triangle difference ``v - margin`` from a pivot (``magnitude``
    the margin).  ``width`` is at least ``n + m + dim`` of every pair the
    comparison spans.  Scalars or arrays.  An integer-valued member
    compares exactly; any other prunes only when ``lower > radius +``
    :func:`rounding_slack`.

    *Why the slack suffices* (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §2.2 and §4.2).  Write ``u = 2**-53``, ``w`` for the width,
    ``eps = 4 w u``, ``D`` for a distance in exact arithmetic and ``d`` for
    its computed value.  Three facts hold, each with room to spare (``w >=
    3``):

    1. ``(1 - eps) D <= d <= (1 + eps) D``.  A C cell is ``fl(cost +
       min(...))``, or a ``max``.  Min and max select exactly and rounding
       is monotone, so ``d`` is the left-to-right float sum of the float
       costs along one path, and no path's float sum is smaller.  A path
       has at most ``n + m`` terms and a float cost is within
       ``gamma_(dim+2)`` of the exact one, so every path's float sum is
       within ``gamma_(w+2)`` of its exact sum (``gamma_k = k u / (1 - k
       u)``), and so is the minimum over the paths.  A bottleneck value is
       one float cost; a Euclidean value is the root of one NumPy sum of
       ``n dim`` squares, added pairwise in blocks of eight.
    2. A registered bound ``b`` on an exact bound ``B <= D`` has ``b <= (1 +
       eps) B``: it sums or maxes at most ``n`` float costs.  The two that
       subtract (``erp-gap``, ``norm``) first take their operand sums'
       rounding off (:mod:`repro.distances.lower_bounds`).
    3. A margin ``mu`` of the reference net has ``D(p, x) <= (1 + eps) mu``.
       A link is a computed distance.  A subtree radius ``eps' 2**(l + 1)``
       exceeds the sum of the covering radii below it, each of which
       bounds one computed hop.  A reach is the float sum of the two.

    Now let ``d(q, x) <= r``.  A bound on it has ``b <= (1 + eps) D <= r (1
    + eps) / (1 - eps) <= r + 3 eps r``.  A pivot's distance, or a bound on
    it, has ``v <= (1 + eps) (D(q, x) + D(p, x))``, so ``fl(v - mu) <= r +
    (3 eps + 2 u) (r + mu)``.  Both are below ``r + (12 w + 2) u (r +
    mu)``, and ``fl(r + rounding_slack(r, mu, w))`` exceeds that.
    """
    if distance.integer_valued:
        return lower > radius
    return lower > radius + rounding_slack(radius, magnitude, width)


def accepts(distance: Distance, value, margin, radius, width: int):
    """Whether a pivot at computed distance ``value`` puts a node within ``radius``.

    The mirror of :func:`prunes`: ``margin`` covers the distance from the
    pivot to the node (a link, a reach, a subtree radius).  An
    integer-valued member compares exactly.  Any other accepts only when
    ``value + margin +`` :func:`rounding_slack` ``<= radius`` (which an
    infinite radius always meets).  With the facts of :func:`prunes`,
    ``d(q, x) <= (1 + eps) (v / (1 - eps) + (1 + eps) mu) <= (1 + 3 eps)
    (1 + u) fl(v + mu)``.  An accept gives ``fl(v + mu) <= r (1 + u) -
    slack``, so ``d(q, x) <= r + (3 eps + 4 u) r - slack <= r``, because
    the slack is at least ``(12 w + 4) u r``.
    """
    if distance.integer_valued:
        return value + margin <= radius
    return value + margin + rounding_slack(radius, margin, width) <= radius


def bound_prunes(distance: Distance, bounds, cutoff, query, items):
    """:func:`prunes` for bounds from ``query`` ``(n, dim)`` to ``items`` ``(k, m, dim)``."""
    width = query.shape[0] + items.shape[1] + query.shape[1]
    return prunes(distance, bounds, cutoff, 0.0, width)
