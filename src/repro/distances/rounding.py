"""The one prune rule: every prune clears a rounding slack proven for floating point.

A lower bound, a bound-table entry and a triangle difference are computed
in another order than the C value they bound, and a C sweep abandons on a
row minimum computed in another order than its value.  So ``bound > radius``
can drop a pair whose value *equals* the radius.  :func:`prunes` decides
every prune of the package, and :func:`sweep_cutoff` hands the C sweeps
their cutoff, past one slack.  A distance states what its rounding scales
with (:meth:`~repro.distances.base.Distance.rounding_scale`) and whether its
values are exact integer counts (``integer_valued``).
"""

from __future__ import annotations

from repro.distances.base import Distance


def rounding_slack(radius, magnitude, width: int):
    """``32 * width**2 * u * (magnitude + |radius|)``, ``u = 2**-53`` the unit
    roundoff of float64; see :func:`prunes`."""
    return 32.0 * width * width * 2.0**-53 * (magnitude + abs(radius))


def prunes(distance: Distance, lower, radius, magnitude=0.0, width: int = 1):
    """Whether ``lower``, a computed lower bound on a distance, proves it beyond ``radius``.

    ``lower`` is a registered bound, a bound-table entry or a triangle
    difference ``d(q, p) - margin``.  An integer-valued member compares
    exactly; any other prunes only when ``lower > radius +``
    :func:`rounding_slack`.  The caller states the magnitudes that entered
    the comparison (scalars or arrays):

    * a bound on ``d(Q, X)``: ``rounding_scale(Q) + rounding_scale(X)``,
      ``width = n + m + dim``;
    * a triangle reject on a metric: ``rounding_scale(q) + margin``,
      ``width`` the longest query plus the longest item plus ``dim``.  If
      the child ``c`` is a true match, ``scale(c) <= scale(q) + radius`` and
      ``scale(p) <= scale(c) + margin``, so every distance the reject spans
      is computed at scale at most ``2 * (magnitude + |radius|)``.

    *Why the slack suffices.*  A rounding errs by at most ``u`` times its
    magnitude, a sum of ``k`` non-negative terms by ``k * u`` times the sum
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §2.2, §4.2).
    With ``M = magnitude + |radius|`` and ``w = width``:

    * a bound sums at most ``w`` terms of at most ``M``; ``erp-gap``'s
      element-wise triangle ``|g(q) - g(x)| <= c(q, x)`` holds to ``(dim +
      3) * u`` of its terms: at most ``2 * w * u * M`` in all;
    * the DTW sweep's prefix sums err by ``w * u`` times the row sums, at
      most ``w * M`` together, and each of ``w`` rows adds three roundings
      at that scale: at most ``4 * w**2 * u * M``;
    * the edit sweep adds three roundings per row at scale ``2 * M`` and its
      gap prefix sums ``w * u * M``: at most ``7 * w * u * M``;
    * a bottleneck or Euclidean value errs by ``w * u`` times itself.

    A triangle reject meets three distances at scale ``2 * M`` and one
    subtraction, a bound one distance, an abandon one row minimum and one
    value: at most ``24 * w**2 * u * M + 2 * w * u * M + u * M``.  At the
    ledger's widths (``w`` ~ 160) the slack is ~1e-10 of ``M``; on
    integer-valued data (the songs' pitch classes) it moves no prune.
    """
    if distance.integer_valued:
        return lower > radius
    return lower > radius + rounding_slack(radius, magnitude, width)


def bound_prunes(distance: Distance, bounds, cutoff, query, items):
    """:func:`prunes` for bounds from ``query`` ``(n, dim)`` to ``items`` ``(k, m, dim)``."""
    if distance.integer_valued:
        return bounds > cutoff
    magnitude = distance.rounding_scale(query) + distance.rounding_scale(items)
    width = query.shape[0] + items.shape[1] + query.shape[1]
    return prunes(distance, bounds, cutoff, magnitude, width)


def sweep_cutoff(distance: Distance, cutoff, first, second):
    """The cutoff a summing C sweep of ``first x second`` gets when asked for ``cutoff``.

    A sweep abandons once every cell of a row exceeds its cutoff.  The DTW
    and edit sweeps run in reduced coordinates, so the value can round below
    an earlier row's minimum; abandoning at ``cutoff`` dropped pairs whose
    value equals it.  Past :func:`prunes`' slack, a value at most ``cutoff``
    stays exact, and one just above it comes back exact too, which the
    ``bounded`` contract allows.  ``first`` / ``second``: two operands or
    two row-aligned stacks.
    """
    if cutoff is None:
        return None
    magnitude = distance.rounding_scale(first) + distance.rounding_scale(second)
    width = first.shape[-2] + second.shape[-2] + first.shape[-1]
    return cutoff + rounding_slack(cutoff, magnitude, width)
