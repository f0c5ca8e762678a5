"""Macro-element L2 projection onto (truncated) hierarchical splines.

The projector runs in two passes.  The domain is covered by the
well-behaved and the regular boxes of the degree-sized classification (a
:class:`ProjectorPartition`); on every such macro-element the target is
fitted by a local least-squares problem over the basis functions that are
nonzero there.  For the degree-sized classification those restricted
functions are linearly independent (checkable per region with
:func:`verify_non_overloaded`), so every local Gramian is symmetric
positive definite.  The local coefficients are then blended per function
with weights proportional to the share of the function's integral carried
by each macro-element.  The composite map is linear, local, and a
projection: any function already in the space is returned unchanged.

Quadrature runs over whole levels (:meth:`ThbSpace.quadrature` blocks):
the target is sampled once per level, and every macro-element gathers its
elements' rows from those blocks and maps them to its functions with its
dense extraction table, rebuilt from the partition's flat member arrays
(one builder for the member integrals, :func:`bezier_project` and
:func:`local_l2_project`).  Rules are tensor Gauss rules on active
elements, where every basis function is a polynomial, so Gramians and
integrals are exact up to rounding.  Local solves over distinct
macro-elements are independent; coefficient accumulation always runs in
canonical member order, so results are bit-reproducible.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from .hierarchy import gauss_tensor
from .numerics import SPD_PIVOT_REL, NonSPDError, svd_rank
from .qbox import classify

_NORMS = ("l2", "linf", "h1")


class ProjectorPartition:
    """Covering of the domain by non-overloaded macro-elements.

    The members are the well-behaved plus the regular boxes of the given
    classification, in canonical order (level-major, lexicographic by box
    index).  The granularity defaults to the spline degree per direction,
    for which the members are guaranteed to support linearly independent
    function restrictions; a classification of another granularity may be
    supplied, in which case that guarantee is the caller's problem and a
    violation surfaces as a :class:`~thbox.numerics.NonSPDError` in the
    local solves.

    Construction keeps flat arrays with member pointers: the active
    elements in member order, the ids of the functions nonzero on each
    member with their member integrals (summed per function in
    ``total_integrals``), and the ``R_lv`` nonzeros of the member's elements
    as cells of its dense extraction table, which :meth:`_basis` rebuilds.
    """

    def __init__(self, space, mesh=None):
        if mesh is None:
            mesh = classify(space, space.degree)
        elif mesh.space is not space:
            raise ValueError("classified mesh belongs to a different space")
        self.space = space
        self.mesh = mesh
        members = []
        first = []
        for lv in range(mesh.num_levels):
            first.append(len(members))
            boxes = sorted(set(mesh.well_behaved(lv)) | set(mesh.regular(lv)))
            members.extend((lv, b) for b in boxes)
        self.members = tuple(members)
        self._index = {m: i for i, m in enumerate(self.members)}
        self._first = np.array(first)
        self._rule = gauss_tensor(space)

        levels = range(space.num_levels)
        elements, local = zip(*(space.element_rows(lv) for lv in levels))
        self._offsets = np.cumsum([0] + [len(e) for e in elements])
        owner = np.concatenate([self._owners(lv, elements[lv]) for lv in levels])
        # a stable sort keeps each member's elements level-major, then canonical
        self._elements = np.argsort(owner, kind="stable")
        owner = owner[self._elements]
        self._elem_ptr = np.searchsorted(owner, np.arange(len(members) + 1))
        # the R_lv nonzeros of every element's B-splines, in member order
        exts = [space.extraction(lv) for lv in levels]
        first_row = np.cumsum([0] + [ext.shape[0] for ext in exts])
        rows = np.concatenate([local[lv] + first_row[lv] for lv in levels])[self._elements]
        sub = scipy.sparse.vstack(exts, format="csr")[rows.ravel()]
        slot = np.repeat(np.arange(rows.size), np.diff(sub.indptr))  # element * nloc + row
        member = owner[slot // rows.shape[1]]
        keys, col = np.unique(member * space.ndof + sub.indices, return_inverse=True)
        self._fids = (keys % space.ndof).astype(sub.indices.dtype)
        self._key_member = keys // space.ndof
        self._fid_ptr = np.searchsorted(self._key_member, np.arange(len(members) + 1))
        self._entry_ptr = np.searchsorted(member, np.arange(len(members) + 1))
        base = self._elem_ptr[member] * rows.shape[1]
        self._cells = (slot - base) * np.diff(self._fid_ptr)[member] + col - self._fid_ptr[member]
        self._values = sub.data
        # free the entry-sized temporaries before the quadrature blocks exist
        del rows, sub, slot, member, keys, col, base

        blocks = {b.level: (b.values[0], b.weights) for b in space.quadrature(self._rule)}
        ints = []
        for idx in range(len(members)):
            values, weights = self._rows(idx, blocks)
            ints.append((self._basis(idx, values) @ weights[:, :, None])[:, :, 0].sum(axis=0))
        ints = np.concatenate(ints)
        total = np.bincount(self._fids, ints, space.ndof)
        if np.any(total <= 0.0):
            raise AssertionError("a basis function escaped every macro-element")
        self._ints = ints
        self._shares = ints / total[self._fids]
        self.total_integrals = total
        # each function's (member, function) pairs, members in canonical order
        self._by_fid = np.argsort(self._fids, kind="stable")
        self._by_fid_ptr = np.searchsorted(self._fids[self._by_fid], np.arange(space.ndof + 1))

    def _owners(self, lv, elements):
        """Member index of each active level-``lv`` element (n, dim)."""
        level, pos = self.mesh.macro_element_of(lv, elements // self.mesh.q)
        if np.any(level < 0):
            raise AssertionError("macro-elements do not cover the active mesh")
        return self._first[level] + pos

    def _rows(self, idx, levels):
        """Member ``idx``'s rows of every array in ``levels[lv]`` (one row per
        active level-``lv`` element), concatenated in member order."""
        g = self._elements[self._elem_ptr[idx]:self._elem_ptr[idx + 1]]
        cut = np.searchsorted(g, self._offsets).tolist()
        parts = [[arr[g[i:j] - self._offsets[lv]] for arr in levels[lv]]
                 for lv, (i, j) in enumerate(zip(cut, cut[1:])) if i < j]
        return [np.concatenate(arrays) for arrays in zip(*parts)]

    def _basis(self, idx, values):
        """Values (nel, nf, nq) of member ``idx``'s functions, ``C_e^T V_e`` per
        element, from tensor B-spline ``values`` (nel, nloc, nq) in member order."""
        a, b = self._entry_ptr[idx], self._entry_ptr[idx + 1]
        nf = self._fid_ptr[idx + 1] - self._fid_ptr[idx]
        table = np.zeros(values.shape[:2] + (nf,))
        np.put(table, self._cells[a:b], self._values[a:b])
        return table.transpose(0, 2, 1) @ values

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "ProjectorPartition(members=%d, ndof=%d)" % (
            len(self.members),
            self.space.ndof,
        )

    def member_index(self, member):
        """Index of a member given as an int or a (level, box) pair."""
        if isinstance(member, (int, np.integer)):
            idx = int(member)
            if not 0 <= idx < len(self.members):
                raise ValueError("member index %d out of range" % idx)
            return idx
        key = (member[0], tuple(member[1]))
        if key not in self._index:
            raise ValueError("box %s at level %d is not a member" % (key[1], key[0]))
        return self._index[key]

    def member_elements(self, member):
        """Active (level, element) pairs covered by the member."""
        idx = self.member_index(member)
        g = self._elements[self._elem_ptr[idx]:self._elem_ptr[idx + 1]]
        level = np.searchsorted(self._offsets, g, side="right") - 1
        return tuple(
            (lv, self.space.active_elements(lv)[i])
            for lv, i in zip(level.tolist(), (g - self._offsets[level]).tolist())
        )

    def member_functions(self, member):
        """Sorted ids of the functions nonzero on the member."""
        idx = self.member_index(member)
        return self._fids[self._fid_ptr[idx]:self._fid_ptr[idx + 1]]

    def member_integrals(self, member):
        """Member integrals of the member's functions (aligned with ids)."""
        idx = self.member_index(member)
        return self._ints[self._fid_ptr[idx]:self._fid_ptr[idx + 1]]

    def member_of_element(self, lv, e):
        """Index of the unique member covering active element (lv, e)."""
        if not (0 <= lv < self.space.num_levels and self.space.is_active_element(lv, tuple(e))):
            raise ValueError("element %s of level %d is not active" % (e, lv))
        return int(self._owners(lv, np.array([e]))[0])

    def _pairs_of(self, fid):
        """Positions of function ``fid``'s (member, function) pairs."""
        if not 0 <= fid < self.space.ndof:
            raise IndexError("function id %d out of range" % fid)
        return self._by_fid[self._by_fid_ptr[fid]:self._by_fid_ptr[fid + 1]]

    def members_for_function(self, fid):
        """Indices of the members on which function ``fid`` is nonzero."""
        return tuple(self._key_member[self._pairs_of(fid)].tolist())


def region_gramian(space, region):
    """Exact Gramian of the active functions restricted to a union of elements.

    ``region`` is an iterable of active (level, element) pairs (duplicates
    are ignored).  Returns (fids, gram) with the sorted ids of the
    functions nonzero on the region; Gauss quadrature of order ``max(p)+1``
    on every element of the region makes the Gramian exact up to rounding.
    """
    region = sorted(set((lv, tuple(e)) for lv, e in region))
    if not region:
        raise ValueError("empty region")
    gram = sum(block.gram() for block in space.quadrature(gauss_tensor(space), elements=region))
    # B-splines and the functions' coefficients on them are nonnegative, so
    # the diagonal is positive exactly for the functions nonzero on the region
    fids = np.flatnonzero(gram.diagonal())
    return fids, gram[fids][:, fids].toarray()


def verify_non_overloaded(space, region):
    """Whether the functions nonzero on the region are linearly independent there.

    Decided by the rank of the region Gramian with relative singular-value
    threshold 1e-10.  The Gramian is scaled to unit diagonal first — a
    congruence that leaves its rank unchanged but keeps the decision about
    the angles between the functions rather than their restricted norms,
    which for truncated coarse functions on deep regions can be tiny.
    """
    fids, gram = region_gramian(space, region)
    scale = 1.0 / np.sqrt(np.diag(gram))
    return svd_rank(scale[:, None] * gram * scale[None, :], 1e-10)[0] == len(fids)


def _local_solve(partition, idx, values, weights, target):
    """Least-squares coefficients of member ``idx``, aligned with its function ids.

    ``values``, ``weights`` and ``target`` hold the partition's rule on the
    member's elements in member order (tensor B-spline values, weights and
    target values).
    """
    nf = partition._fid_ptr[idx + 1] - partition._fid_ptr[idx]
    root = np.sqrt(weights)
    a = (partition._basis(idx, values) * root[:, None, :]).transpose(0, 2, 1).reshape(-1, nf)
    b = (root * target).ravel()
    # The coefficients solve the normal equations of the weighted sampled
    # system.  The Cholesky factor of the (column-equilibrated) normal
    # matrix is taken from a QR decomposition of the weighted value matrix
    # itself, which halves the condition number exponent: truncation can
    # leave near-parallel sliver restrictions on deep members, where the
    # explicitly squared Gramian loses up to eight digits.  One refinement
    # step with an extended-precision residual polishes the solution.
    col = np.sqrt(np.einsum("ij,ij->j", a, a))
    scaled = a / col
    q, r = scipy.linalg.qr(scaled, mode="economic")
    # diag(r)^2 are the Cholesky pivots; equilibration makes the trace the
    # member's function count
    pivots = np.square(np.diag(r))
    if np.min(pivots) < SPD_PIVOT_REL * nf:
        raise NonSPDError(
            "member %r Gramian pivot %.3e below %.1e * trace = %.3e"
            % (partition.members[idx], np.min(pivots), SPD_PIVOT_REL,
               SPD_PIVOT_REL * nf)
        )
    y = scipy.linalg.solve_triangular(r, q.T @ b)
    resid = np.asarray(
        b.astype(np.longdouble) - scaled.astype(np.longdouble) @ y.astype(np.longdouble),
        dtype=float,
    )
    y = y + scipy.linalg.solve_triangular(r, q.T @ resid)
    return y / col


def local_l2_project(partition, member, f):
    """Best L2 fit of ``f`` on one macro-element: map function id -> coefficient.

    The coefficients minimize the L2 distance between ``f`` and the span
    of the member's function restrictions; ``f`` is sampled on the
    member's elements only.  A numerically singular Gramian raises
    :class:`~thbox.numerics.NonSPDError`: it signals that the member
    supports linearly dependent restrictions and is a hard fault.
    """
    idx = partition.member_index(member)
    elements = partition.member_elements(idx)
    blocks = partition.space.quadrature(partition._rule, fields=(f,), elements=elements)
    arrays = zip(*((block.values[0], block.weights, block.fields[0]) for block in blocks))
    coeffs = _local_solve(partition, idx, *(np.concatenate(a) for a in arrays))
    return dict(zip(partition.member_functions(idx).tolist(), coeffs.tolist()))


def smoothing_weights(partition, fid):
    """Averaging weights of function ``fid``: map member -> integral share.

    The weight of member E is the integral of the function over E divided
    by its integral over the whole domain; the weights of the members
    meeting the function's support sum to one.
    """
    pairs = partition._pairs_of(fid)
    members = partition._key_member[pairs].tolist()
    return {partition.members[m]: s for m, s in zip(members, partition._shares[pairs].tolist())}


class ProjectionResult:
    """Coefficient vector of a projection onto a hierarchical space."""

    def __init__(self, coefficients, ndof):
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.ndof = int(ndof)

    def __repr__(self):
        return "ProjectionResult(ndof=%d)" % self.ndof


def bezier_project(space, f, partition=None):
    """Two-pass macro-element projection of ``f`` onto the space.

    Runs a local least-squares fit on every partition member and blends
    the local coefficients with the members' smoothing weights.  The
    result is linear in ``f``, reproduces every function of the space, and
    on an element depends on ``f`` only within that element's support
    extension.  Member accumulation runs in canonical order, so repeated
    runs are bit-identical.
    """
    if partition is None:
        partition = ProjectorPartition(space)
    elif partition.space is not space:
        raise ValueError("partition belongs to a different space")
    blocks = space.quadrature(partition._rule, fields=(f,))
    levels = {b.level: (b.values[0], b.weights, b.fields[0]) for b in blocks}
    local = np.concatenate(
        [_local_solve(partition, i, *partition._rows(i, levels)) for i in range(len(partition))]
    )
    coeffs = np.bincount(partition._fids, partition._shares * local, space.ndof)
    return ProjectionResult(coeffs, space.ndof)


class SupportExtension:
    """Domain of dependence of the projection on one element.

    ``members`` are the (level, box) macro-elements feeding the element's
    coefficients; ``cube`` is the smallest axis-aligned bounding box of
    their union, as per-direction (lo, hi) coordinates.
    """

    def __init__(self, members, cube):
        self.members = tuple(members)
        self.cube = tuple(cube)

    def __repr__(self):
        return "SupportExtension(members=%d, cube=%s)" % (len(self.members), (self.cube,))


def support_extension(partition, lv, e):
    """Members whose data the projection on active element (lv, e) uses.

    These are the members meeting the support of any function that is
    nonzero on the element's own member; changing the target outside
    their union cannot change the projection on the element.
    """
    idx = partition.member_of_element(lv, e)
    meets = np.isin(partition._fids, partition.member_functions(idx))
    members = [partition.members[i] for i in np.unique(partition._key_member[meets]).tolist()]
    bounds = np.array([partition.mesh.box_bounds(mlv, box) for mlv, box in members])
    lo, hi = bounds[:, :, 0].min(axis=0).tolist(), bounds[:, :, 1].max(axis=0).tolist()
    return SupportExtension(members, tuple(zip(lo, hi)))


class ErrorReport:
    """Per-element and global projection errors.

    ``per_element`` maps active (level, element) pairs to dicts with the
    requested norms: "l2" (with "rms", the element L2 error divided by the
    square root of the element volume), "linf" (dense tensor sampling),
    and "h1" (full first-order Sobolev norm on the element).  Globals:
    ``error_l2``/``error_h1`` (square-summed), ``error_linf`` (max), and
    ``max_elem_l2`` — the largest per-element "rms" value, an
    element-size-independent quality measure.
    """

    def __init__(self, per_element, norms):
        self.per_element = per_element
        self.norms = tuple(norms)
        self.error_l2 = None
        self.error_linf = None
        self.error_h1 = None
        self.max_elem_l2 = None
        if "l2" in norms:
            self.error_l2 = float(
                np.sqrt(sum(v["l2"] ** 2 for v in per_element.values()))
            )
            self.max_elem_l2 = max(v["rms"] for v in per_element.values())
        if "linf" in norms:
            self.error_linf = max(v["linf"] for v in per_element.values())
        if "h1" in norms:
            self.error_h1 = float(
                np.sqrt(sum(v["h1"] ** 2 for v in per_element.values()))
            )

    @property
    def nelem(self):
        return len(self.per_element)

    def __repr__(self):
        parts = ["nelem=%d" % self.nelem]
        for name in ("error_l2", "error_linf", "error_h1"):
            val = getattr(self, name)
            if val is not None:
                parts.append("%s=%.3e" % (name, val))
        return "ErrorReport(%s)" % ", ".join(parts)


def error_report(space, f, result, norms=_NORMS, f_grad=None):
    """Quadrature errors of a projection, per active element and global.

    ``result`` is a :class:`ProjectionResult` or a raw coefficient vector.
    ``norms`` selects among "l2", "linf", and "h1"; the "h1" norm needs
    ``f_grad``, mapping points (npts, dim) to gradients (npts, dim).  L2
    and H1 use per-element Gauss quadrature one order above the Gramian
    rule; the Linf estimate samples a dense per-element tensor grid of
    ``2*p+3`` points per direction.
    """
    coeffs = np.asarray(getattr(result, "coefficients", result), dtype=float)
    if coeffs.shape != (space.ndof,):
        raise ValueError("coefficient vector must have length %d" % space.ndof)
    norms = tuple(norms)
    unknown = set(norms) - set(_NORMS)
    if unknown:
        raise ValueError("unknown norms: %s" % sorted(unknown))
    if "h1" in norms and f_grad is None:
        raise ValueError("the h1 norm requires f_grad")
    dim = space.dim
    per_element = {key: {} for key in space.all_active_elements()}
    if "l2" in norms or "h1" in norms:
        derivs = ((0,) * dim,)
        fields = (f,)
        if "h1" in norms:
            derivs += tuple(
                tuple(1 if k == d else 0 for k in range(dim)) for d in range(dim)
            )
            fields += _gradient_components(f_grad, dim)
        for block in space.quadrature(gauss_tensor(space, extra=1), derivs, fields):
            w = block.weights
            sq = []
            for k in range(len(derivs)):
                err = block.evaluate(coeffs, k) - block.fields[k]
                sq.append((err * (w * err)).sum(axis=1))
            l2 = np.sqrt(sq[0]).tolist()
            rms = np.sqrt(sq[0] / np.prod(block.sizes, axis=1)).tolist()
            h1 = np.sqrt(sum(sq)).tolist()
            for i, e in enumerate(block.element_keys()):
                entry = per_element[(block.level, e)]
                if "l2" in norms:
                    entry["l2"] = l2[i]
                    entry["rms"] = rms[i]
                if "h1" in norms:
                    entry["h1"] = h1[i]
    if "linf" in norms:
        grid = tuple(
            (tuple(np.linspace(0.0, 1.0, 2 * p + 3).tolist()), None)
            for p in space.degree
        )
        for block in space.quadrature(grid, fields=(f,)):
            err = np.abs(block.evaluate(coeffs) - block.fields[0]).max(axis=1)
            for e, val in zip(block.element_keys(), err.tolist()):
                per_element[(block.level, e)]["linf"] = val
    return ErrorReport(per_element, norms)


def _gradient_components(f_grad, dim):
    """The components of ``f_grad`` as ``dim`` fields sharing one call per point array.

    Quadrature calls every field of a block with the same point array, so
    ``f_grad``, which must give (npts, dim), runs once per block.
    """
    last = [None, None]

    def component(pts, d):
        if last[0] is not pts:
            grads = np.asarray(f_grad(pts), dtype=float)
            if grads.shape != (len(pts), dim):
                raise ValueError("f_grad must return an (npts, dim) array")
            last[:] = pts, grads
        return last[1][:, d]

    return tuple(lambda pts, d=d: component(pts, d) for d in range(dim))
