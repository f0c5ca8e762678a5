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
are shared by all levels of a hierarchy.  :func:`two_scale_matrix` returns
the subdivision weights expressing each coarse B-spline in the refined
basis.

Function and element multi-indices in tensor products are raveled in
C order (last direction fastest) throughout the package.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse


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
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if not 1 <= multiplicity <= degree + 1:
            raise ValueError(
                "multiplicity must satisfy 1 <= m <= p+1, got m=%d for p=%d"
                % (multiplicity, degree)
            )
        self.degree = int(degree)
        self.multiplicity = int(multiplicity)
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

    def first_func_on_element(self, e):
        """Smallest basis index supported on element ``e`` (there are p+1)."""
        return e * self.multiplicity

    def support_range(self, j):
        """Inclusive element index range (lo, hi) where function ``j`` is nonzero.

        ``j`` may also be an index array; ``lo`` and ``hi`` are then arrays
        of its shape.
        """
        j = np.asarray(j)
        if np.any((j < 0) | (j >= self.numbasis)):
            raise IndexError("function index out of range 0..%d" % (self.numbasis - 1))
        lo = self._breakpoint_of_knot(j)
        hi = self._breakpoint_of_knot(j + self.degree + 1) - 1
        if j.ndim == 0:
            return int(lo), int(hi)
        return lo, hi

    def _breakpoint_of_knot(self, k):
        return np.clip((k - self.degree - 1) // self.multiplicity + 1, 0, self.numelems)

    def greville(self, j):
        """Greville abscissa (knot average) of basis function ``j``."""
        if self.degree == 0:
            return 0.5 * (self.knots[j] + self.knots[j + 1])
        return float(np.mean(self.knots[j + 1 : j + self.degree + 1]))

    def refine(self):
        """Bisect every element; degree and multiplicity are preserved."""
        mids = 0.5 * (self.breakpoints[:-1] + self.breakpoints[1:])
        fine = np.empty(2 * self.numelems + 1)
        fine[0::2] = self.breakpoints
        fine[1::2] = mids
        return KnotVector(fine, self.degree, self.multiplicity)


def uniform_knot_vector(numelems, degree, multiplicity=1):
    """Open knot vector with ``numelems`` equal elements on [0, 1]."""
    if numelems < 1:
        raise ValueError("numelems must be >= 1")
    return KnotVector(np.linspace(0.0, 1.0, numelems + 1), degree, multiplicity)


def uniform_space(numelems, degree, multiplicity=None):
    """Tensor space with uniform open knot vectors per direction."""
    if multiplicity is None:
        multiplicity = (1,) * len(numelems)
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
    starting from :meth:`KnotVector.first_func_on_element`.
    """
    span = kv.span_of_element(e)
    return _ders_basis_funs(kv.knots, kv.degree, span, np.atleast_1d(x), nderiv)


def eval_basis(kv, j, x, deriv=0):
    """Value (or ``deriv``-th derivative) of basis function ``j`` at scalar ``x``."""
    if not 0 <= j < kv.numbasis:
        raise IndexError("function index %d out of range" % j)
    if not 0 <= deriv <= kv.degree:
        raise ValueError("derivative order must satisfy 0 <= k <= p")
    if not 0.0 <= x <= 1.0:
        return 0.0
    e = kv.element_of(x)
    lo, hi = kv.support_range(j)
    if not lo <= e <= hi:
        return 0.0
    vals = basis_on_element(kv, e, np.array([x]), deriv)
    return float(vals[deriv, j - kv.first_func_on_element(e), 0])


def insertion_matrix(coarse, fine):
    """Knot-insertion matrix A (N_fine x N_coarse): ``c_fine = A @ c_coarse``.

    ``fine`` must be the dyadic refinement of ``coarse`` (same degree and
    multiplicity; breakpoints equal to coarse breakpoints plus exact
    midpoints).  Built by iterated single-knot insertion.
    """
    if coarse.degree != fine.degree or coarse.multiplicity != fine.multiplicity:
        raise ValueError("coarse and fine must share degree and multiplicity")
    expected = coarse.refine()
    if not np.array_equal(expected.breakpoints, fine.breakpoints):
        raise ValueError("fine is not the bisection refinement of coarse")
    p = coarse.degree
    knots = list(coarse.knots)
    a = scipy.sparse.identity(coarse.numbasis, format="csr")
    mids = 0.5 * (coarse.breakpoints[:-1] + coarse.breakpoints[1:])
    for xnew in mids:
        for _ in range(coarse.multiplicity):
            n = a.shape[0]
            # largest k with knots[k] <= xnew (xnew is strictly interior)
            k = int(np.searchsorted(np.asarray(knots), xnew, side="right")) - 1
            rows, cols, vals = [], [], []
            for i in range(n + 1):
                if i <= k - p:
                    rows.append(i), cols.append(i), vals.append(1.0)
                elif i >= k + 1:
                    rows.append(i), cols.append(i - 1), vals.append(1.0)
                else:
                    alpha = (xnew - knots[i]) / (knots[i + p] - knots[i])
                    rows.append(i), cols.append(i), vals.append(alpha)
                    rows.append(i), cols.append(i - 1), vals.append(1.0 - alpha)
            step = scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, n))
            a = step @ a
            knots.insert(k + 1, float(xnew))
    return a.tocsr()


def two_scale_matrix(coarse, fine):
    """Subdivision weights M (N_coarse x N_fine): B_coarse[i] = sum_j M[i,j] B_fine[j].

    Rows follow coarse basis functions.  Columns sum to 1 because refinement
    preserves the partition of unity.
    """
    return insertion_matrix(coarse, fine).T.toarray()


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points and weights on an interval."""

    points: np.ndarray
    weights: np.ndarray
    order: int


def gauss_rule(order, interval=(0.0, 1.0)):
    """Gauss-Legendre rule with ``order`` points, exact for degree 2*order-1."""
    if order < 1:
        raise ValueError("quadrature order must be positive")
    a, b = interval
    if not b > a:
        raise ValueError("empty interval")
    x, w = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return QuadratureRule(points=mid + half * x, weights=half * w, order=order)


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

    @property
    def total_elems(self):
        return int(np.prod(self.numelems))

    def refine(self):
        return TensorSpace(tuple(kv.refine() for kv in self.kvs))

    def element_of(self, x):
        return tuple(kv.element_of(xi) for kv, xi in zip(self.kvs, x))

    def support_range(self, j):
        """Per-direction inclusive element ranges of tensor function ``j``."""
        return tuple(kv.support_range(ji) for kv, ji in zip(self.kvs, j))

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

    def functions_on_element(self, e):
        """Iterate multi-indices of the prod(p+1) functions supported on ``e``."""
        ranges = [
            range(kv.first_func_on_element(ei), kv.first_func_on_element(ei) + kv.degree + 1)
            for kv, ei in zip(self.kvs, e)
        ]
        return itertools.product(*ranges)

    def element_functions(self, elements):
        """Raveled ids (n, prod(p+1)) of the functions on ``elements`` (n, dim),
        in :meth:`functions_on_element` order."""
        offsets = np.indices(tuple(p + 1 for p in self.degree)).reshape(self.dim, -1).T
        first = np.asarray(elements, dtype=np.int64) * self.multiplicity
        index = first[:, None, :] + offsets
        return np.ravel_multi_index(tuple(np.moveaxis(index, -1, 0)), self.numbasis)

    def all_functions(self):
        return itertools.product(*(range(n) for n in self.numbasis))

    def all_elements(self):
        return itertools.product(*(range(n) for n in self.numelems))


def tensor_eval(space, j, x, deriv=None):
    """Value of tensor basis function ``j`` at point ``x``.

    ``deriv`` is a per-direction derivative-order tuple (default all zero),
    so mixed partial derivatives are products of univariate derivatives.
    """
    if deriv is None:
        deriv = (0,) * space.dim
    out = 1.0
    for kv, ji, xi, ki in zip(space.kvs, j, x, deriv):
        out *= eval_basis(kv, ji, xi, ki)
        if out == 0.0:
            return 0.0
    return out
