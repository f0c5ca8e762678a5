"""Univariate and tensor-product B-spline bases on [0, 1]^n.

A :class:`KnotVector` is described by a strictly increasing breakpoint
sequence starting at 0 and ending at 1, a degree ``p`` and a uniform
interior knot multiplicity ``m`` (1 <= m <= p+1).  The open knot sequence
repeats both endpoints ``p+1`` times and every interior breakpoint ``m``
times, which yields ``N = len(knots) - p - 1`` basis functions of
smoothness C^(p-m) across interior breakpoints.

Basis functions follow the Cox-de Boor recursion with the usual
right-continuity convention: piecewise-constant functions are 1 on
``[x_j, x_{j+1})``, except that the last function is also 1 at the right
endpoint, so the basis forms a partition of unity on the closed interval.

Dyadic refinement (:meth:`KnotVector.refine`) bisects every element by
inserting each midpoint with multiplicity ``m``; degree and multiplicity
are shared by all levels of a hierarchy.  :func:`two_scale_arrays` returns
the subdivision weights expressing each coarse B-spline in the refined
basis as padded (index, weight) arrays, written by local knot insertion.
:func:`derivative_matrix`
maps coefficients to those of the derivative in the degree-(p-1) basis.

Function and element multi-indices in tensor products are raveled in
C order (last direction fastest) throughout the package.
"""

import bisect

import numpy as np
import scipy.sparse


def as_integer(value, what):
    """``value`` as an int; ValueError naming ``what`` for a bool, a float or
    any other non-integer (numpy integers pass).  The one rule for integer
    identifiers, levels and counts that come from outside."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return int(value)


def _as_breakpoints(breakpoints):
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise ValueError("need at least two breakpoints")
    if np.any(np.diff(pts) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if pts[0] != 0.0 or pts[-1] != 1.0:
        raise ValueError("breakpoints must start at 0 and end at 1")
    return pts


class KnotVector:
    """Open knot sequence with uniform interior multiplicity on [0, 1]."""

    def __init__(self, breakpoints, degree, multiplicity=1):
        self.breakpoints = _as_breakpoints(breakpoints)
        self.degree = as_integer(degree, "degree")
        self.multiplicity = as_integer(multiplicity, "multiplicity")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if not 1 <= self.multiplicity <= self.degree + 1:
            raise ValueError(
                "multiplicity must satisfy 1 <= m <= p+1, got m=%d for p=%d"
                % (self.multiplicity, self.degree)
            )
        interior = np.repeat(self.breakpoints[1:-1], self.multiplicity)
        self.knots = np.concatenate(
            [
                np.zeros(self.degree + 1),
                interior,
                np.ones(self.degree + 1),
            ]
        )

    @property
    def numelems(self):
        return len(self.breakpoints) - 1

    @property
    def numbasis(self):
        return len(self.knots) - self.degree - 1

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.degree == other.degree
            and self.multiplicity == other.multiplicity
            and len(self.breakpoints) == len(other.breakpoints)
            and np.array_equal(self.breakpoints, other.breakpoints)
        )

    def __hash__(self):
        return hash((self.degree, self.multiplicity, self.breakpoints.tobytes()))

    def __repr__(self):
        return "KnotVector(%d breakpoints, p=%d, m=%d)" % (
            len(self.breakpoints),
            self.degree,
            self.multiplicity,
        )

    def element_of(self, x):
        """Index of the element whose half-open span contains ``x``.

        Points at or beyond the right endpoint map to the last element,
        matching the closed right end of the basis.
        """
        e = int(np.searchsorted(self.breakpoints, x, side="right")) - 1
        return min(max(e, 0), self.numelems - 1)

    def span_of_element(self, e):
        """Knot span index such that [knots[s], knots[s+1]) is element ``e``."""
        return self.degree + e * self.multiplicity

    def support_range(self, j):
        """Inclusive element index ranges (lo, hi), two arrays shaped like the
        function index array ``j``, where each function is nonzero."""
        j = np.asarray(j)
        if np.any((j < 0) | (j >= self.numbasis)):
            raise IndexError("function index out of range 0..%d" % (self.numbasis - 1))
        return self._breakpoint_of_knot(j), self._breakpoint_of_knot(j + self.degree + 1) - 1

    def _breakpoint_of_knot(self, k):
        return np.clip((k - self.degree - 1) // self.multiplicity + 1, 0, self.numelems)

    def refine(self):
        """Bisect every element; degree and multiplicity are preserved."""
        mids = 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])
        fine = np.empty(2 * self.numelems + 1)
        fine[0::2] = self.breakpoints
        fine[1::2] = mids
        return KnotVector(fine, self.degree, self.multiplicity)


def uniform_knot_vector(numelems, degree, multiplicity=1):
    """Open knot vector with ``numelems`` equal elements on [0, 1];
    ``numelems`` is an integer (:func:`as_integer`)."""
    numelems = as_integer(numelems, "numelems")
    if numelems < 1:
        raise ValueError("numelems must be >= 1")
    return KnotVector(np.linspace(0.0, 1.0, numelems + 1), degree, multiplicity)


def uniform_space(numelems, degree, multiplicity=None):
    """Tensor space with uniform open knot vectors per direction."""
    for name, arg in (("numelems", numelems), ("degree", degree), ("multiplicity", multiplicity)):
        if arg is not None and np.ndim(arg) != 1:
            raise ValueError("%s must be a sequence with one entry per direction, got %r" % (name, arg))
    if multiplicity is None:
        multiplicity = (1,) * len(numelems)
    if not len(numelems) == len(degree) == len(multiplicity):
        raise ValueError("numelems, degree and multiplicity must have one entry per direction")
    return TensorSpace(
        tuple(
            uniform_knot_vector(n, p, m)
            for n, p, m in zip(numelems, degree, multiplicity)
        )
    )


def _ders_basis_funs(knots, p, span, x, nderiv):
    """Values and derivatives of the p+1 B-splines supported on knot span ``span``.

    ``x`` is an array of points inside the closed span.  Returns an array of
    shape (nderiv+1, p+1, len(x)); row ``k`` holds the k-th derivatives of
    functions ``span-p .. span``.  Follows the standard triangular-table
    algorithm; all divisors are knot spans containing the (nonempty) current
    element, so no division by zero occurs for repeated knots.
    """
    x = np.asarray(x, dtype=float)
    npts = x.shape[0]
    ndu = np.empty((p + 1, p + 1, npts))
    ndu[0, 0] = 1.0
    left = np.empty((p + 1, npts))
    right = np.empty((p + 1, npts))
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = np.zeros(npts)
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    ders = np.zeros((nderiv + 1, p + 1, npts))
    ders[0] = ndu[:, p]
    for r in range(p + 1):
        s1, s2 = 0, 1
        a = np.zeros((2, p + 1, npts))
        a[0, 0] = 1.0
        for k in range(1, nderiv + 1):
            d = np.zeros(npts)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d = d + a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d = d + a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1

    factor = float(p)
    for k in range(1, nderiv + 1):
        ders[k] *= factor
        factor *= p - k
    return ders


def basis_on_element(kv, e, x, nderiv=0):
    """Tabulate the p+1 basis functions supported on element ``e`` at points ``x``.

    ``x`` must lie in the closed element; ``e`` may also be an array of
    elements, one per point.  Returns shape
    (nderiv+1, p+1, len(x)); function axis is ordered by ascending index
    starting from ``e * multiplicity``, the first function on the element.
    """
    span = kv.span_of_element(e)
    return _ders_basis_funs(kv.knots, kv.degree, span, np.atleast_1d(x), nderiv)


def two_scale_arrays(coarse, fine):
    """Two-scale relation of ``coarse`` into its bisection ``fine`` as padded arrays.

    Returns ``(index, weight)``, both (N_coarse, width): coarse B-spline
    ``i`` is ``sum_k weight[i, k] * B_fine[index[i, k]]``, ascending in
    ``index`` and padded with index 0 and weight 0.  ``fine`` must be
    ``coarse.refine()`` up to equality.

    The midpoints are inserted left to right, each ``m`` times (Boehm's
    knot insertion).  Row ``i`` of ``rows`` maps coarse functions to the
    weights of the current ``i``-th coefficient; a knot ``x`` with
    ``t_k <= x < t_{k+1}`` replaces rows ``k-p+1 .. k`` by
    ``alpha * row_i + (1 - alpha) * row_{i-1}`` with
    ``alpha = (x - t_i) / (t_{i+p} - t_i)`` and shifts the later rows by one.
    """
    if coarse.degree != fine.degree or coarse.multiplicity != fine.multiplicity:
        raise ValueError("coarse and fine must share degree and multiplicity")
    if not np.array_equal(coarse.refine().breakpoints, fine.breakpoints):
        raise ValueError("fine is not the bisection refinement of coarse")
    p = coarse.degree
    knots = coarse.knots.tolist()
    rows = [{c: 1.0} for c in range(coarse.numbasis)]
    mids = 0.5 * (coarse.breakpoints[:-1] + coarse.breakpoints[1:])
    for x in np.repeat(mids, coarse.multiplicity).tolist():
        k = bisect.bisect_right(knots, x) - 1
        new = []
        for i in range(k - p + 1, k + 1):
            alpha = (x - knots[i]) / (knots[i + p] - knots[i])
            row = {c: (1.0 - alpha) * w for c, w in rows[i - 1].items()}
            for c, w in rows[i].items():
                row[c] = row[c] + alpha * w if c in row else alpha * w
            new.append(row)
        # p = 0 has no blended rows: row k is simply repeated
        rows[k - p + 1 : k] = new or [rows[k]]
        knots.insert(k + 1, x)
    kids = [[] for _ in range(coarse.numbasis)]
    for i, row in enumerate(rows):
        for c, w in row.items():
            kids[c].append((i, w))
    index = np.zeros((coarse.numbasis, max(map(len, kids))), dtype=np.int64)
    weight = np.zeros(index.shape)
    for c, pairs in enumerate(kids):
        index[c, : len(pairs)], weight[c, : len(pairs)] = zip(*pairs)
    return index, weight


def derivative_matrix(kv):
    """Sparse bidiagonal (N-1, N) map from coefficients on ``kv`` to those of
    their derivative in the degree-(p-1) basis on the same breakpoints and
    multiplicity (the knots of ``kv`` without the first and the last).

    ``N'_i = p/(t_{i+p}-t_i) N^{p-1}_{i-1} - p/(t_{i+p+1}-t_{i+1}) N^{p-1}_i``
    in the reduced basis's indices; the 0/0 terms of the first and the last
    function drop.  Needs ``1 <= m <= p``.
    """
    p, t, n = kv.degree, kv.knots, kv.numbasis
    w = p / (t[p + 1 : n + p] - t[1:n])
    return scipy.sparse.diags([-w, w], [0, 1], shape=(n - 1, n), format="csr")


def gauss_rule(order):
    """Gauss-Legendre ``(points, weights)`` of ``order`` points on [0, 1],
    exact for degree 2*order-1; ValueError unless ``order`` is a positive
    integer (:func:`as_integer`)."""
    order = as_integer(order, "quadrature order")
    if order < 1:
        raise ValueError("quadrature order must be positive")
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 + 0.5 * x, 0.5 * w


class TensorSpace:
    """Tensor product of univariate :class:`KnotVector` factors."""

    def __init__(self, kvs):
        self.kvs = tuple(kvs)
        if not self.kvs:
            raise ValueError("need at least one knot vector")
        self.dim = len(self.kvs)
        self.degree = tuple(kv.degree for kv in self.kvs)
        self.multiplicity = tuple(kv.multiplicity for kv in self.kvs)
        self.numelems = tuple(kv.numelems for kv in self.kvs)
        self.numbasis = tuple(kv.numbasis for kv in self.kvs)

    def __repr__(self):
        return "TensorSpace(p=%s, elems=%s)" % (self.degree, self.numelems)

    @property
    def total_basis(self):
        return int(np.prod(self.numbasis))

    def refine(self):
        return TensorSpace(tuple(kv.refine() for kv in self.kvs))

    def element_of(self, x):
        return tuple(kv.element_of(xi) for kv, xi in zip(self.kvs, x))

    def support_boxes(self, indices):
        """Inclusive element boxes (lo, hi), each (n, dim), of the functions
        ``indices`` (n, dim)."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1, self.dim)
        ranges = [kv.support_range(indices[:, d]) for d, kv in enumerate(self.kvs)]
        return tuple(np.stack(r, axis=1) for r in zip(*ranges))

    def element_bounds(self, e):
        """Per-direction (lo, hi) coordinates of element ``e``."""
        return tuple(
            (kv.breakpoints[ei], kv.breakpoints[ei + 1])
            for kv, ei in zip(self.kvs, e)
        )

    def element_functions(self, elements):
        """Raveled ids (n, prod(p+1)) of the functions on ``elements`` (n, dim),
        in C order over the per-direction windows of p+1 functions from the
        first one on each element, ``element * multiplicity``."""
        offsets = np.indices(tuple(p + 1 for p in self.degree)).reshape(self.dim, -1).T
        first = np.asarray(elements, dtype=np.int64) * self.multiplicity
        index = first[:, None, :] + offsets
        return np.ravel_multi_index(tuple(np.moveaxis(index, -1, 0)), self.numbasis)
