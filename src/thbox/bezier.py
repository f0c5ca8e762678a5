"""Macro-element L2 projection onto (truncated) hierarchical splines.

The projector runs in two passes on p-boxes: it needs a hierarchy whose box
size is the degree.  The domain is covered by the well-behaved and the
regular boxes of the classification (a :class:`ProjectorPartition`); on
every such macro-element the target is fitted by a local least-squares
problem over the basis functions that are nonzero there.  THB-splines are
locally linearly independent on p-boxes, so those restricted functions are
linearly independent (checkable per region with
:func:`verify_non_overloaded`) and every local Gramian is symmetric
positive definite.  The local coefficients are then blended per function
with weights proportional to the share of the function's integral carried
by each macro-element.  The composite map is linear, local, and a
projection: any function already in the space is returned unchanged.

Quadrature runs over whole levels (:meth:`ThbSpace.quadrature` blocks):
the target is sampled once per level.  The member systems are solved in
stacks: members are grouped by shape (element count, function count), and
each chunk of a group, at most :data:`STACK_BYTES` of weighted systems,
gathers its elements' rows straight from the level blocks, rebuilds its
members' dense extraction tables from the partition's flat member arrays
and forms their function values ``V_e^T C_e`` at once.  The same gather
feeds the member integrals, and one stacked solve serves
:func:`bezier_project` and :func:`local_l2_project` (a stack of one).
Rules are tensor Gauss rules on active elements, where every basis
function is a polynomial, so Gramians and integrals are exact up to
rounding.  A member's coefficients do not depend on the chunk that holds
it, and coefficient accumulation always runs in canonical member order,
so results are bit-reproducible.
"""

import numpy as np

from .hierarchy import galerkin, gauss_tensor, raveled, require_no_box, sorted_lookup, unraveled
from .numerics import SPD_PIVOT_REL, NonSPDError, svd_rank
from .qbox import classify

_NORMS = ("l2", "linf", "h1")

#: Bytes of the weighted member systems ``[A | b]`` one stacked solve
#: holds: a chunk takes as many members of one shape as fit, at least one.
STACK_BYTES = 2**20


class ProjectorPartition:
    """Covering of the domain by non-overloaded macro-elements.

    The members are the well-behaved plus the regular boxes of the space's
    classification, in canonical order (level-major, lexicographic by box
    index): the mesh's ``macro_ids``.  The hierarchy's box size must equal
    the degree (p-boxes), on which the members support linearly independent
    function restrictions; any other box size raises ``ValueError``.  A
    basis that is not truncated (``build_hb``) can still be dependent on a
    member, which surfaces as a :class:`~thbox.numerics.NonSPDError` in the
    local solves.

    Construction keeps flat arrays with member pointers: the active
    elements in member order, the ids of the functions nonzero on each
    member with their member integrals (summed per function in
    ``total_integrals``), and the ``R_lv`` nonzeros of the member's elements
    as cells of its dense extraction table.  :meth:`_stacks` gathers chunks
    of same-shape members from level arrays, and :meth:`_member_values`
    rebuilds their tables and forms their function values.
    """

    def __init__(self, space):
        hier = space.hierarchy
        if hier.q != tuple(space.degree):
            raise ValueError(
                "the projector needs p-boxes: box size %s differs from degree %s"
                % (hier.q, tuple(space.degree))
            )
        self.space = space
        self.mesh = mesh = classify(space)
        self.members = tuple(
            (lv, box)
            for lv, ids in enumerate(mesh.macro_ids)
            for box in map(tuple, unraveled(ids, hier.boxes_shape(lv)).tolist())
        )
        self._first = np.cumsum([0] + [len(ids) for ids in mesh.macro_ids])
        self._rule = gauss_tensor(space)

        levels = range(space.num_levels)
        elements, local = zip(*(space.element_rows(lv) for lv in levels))
        self._offsets = np.cumsum([0] + [len(e) for e in elements])
        owner = np.concatenate([self._owners(lv, elements[lv]) for lv in levels])
        # a stable sort keeps each member's elements level-major, then canonical
        self._elements = np.argsort(owner, kind="stable")
        owner = owner[self._elements]
        self._elem_ptr = np.searchsorted(owner, np.arange(len(self.members) + 1))
        # the R_lv nonzeros of every element's B-splines, in member order
        stack, first_row = space.stacked_extraction()
        rows = np.concatenate([local[lv] + first_row[lv] for lv in levels])[self._elements]
        sub = stack[rows.ravel()]
        slot = np.repeat(np.arange(rows.size), np.diff(sub.indptr))  # element * nloc + row
        member = owner[slot // rows.shape[1]]
        keys, col = np.unique(member * space.ndof + sub.indices, return_inverse=True)
        self._fids = (keys % space.ndof).astype(sub.indices.dtype)
        self._key_member = keys // space.ndof
        self._fid_ptr = np.searchsorted(self._key_member, np.arange(len(self.members) + 1))
        self._entry_ptr = np.searchsorted(member, np.arange(len(self.members) + 1))
        base = self._elem_ptr[member] * rows.shape[1]
        self._cells = (slot - base) * np.diff(self._fid_ptr)[member] + col - self._fid_ptr[member]
        self._values = sub.data
        # free the entry-sized temporaries before the quadrature blocks exist
        del stack, rows, sub, slot, member, keys, col, base

        # members grouped by shape (elements, functions), canonical within a group
        nel, nf = np.diff(self._elem_ptr), np.diff(self._fid_ptr)
        order = np.lexsort((nf, nel))
        cut = np.flatnonzero(np.diff(nel[order]) | np.diff(nf[order])) + 1
        self._groups = np.split(order, cut)
        self._nq = int(np.prod([len(pts) for pts, _ in self._rule]))

        blocks = {b.level: (b.values[0], b.weights) for b in space.quadrature(self._rule)}
        ints = np.empty(len(self._fids))
        for mids, (values, weights) in self._stacks(blocks):
            # the weights applied first: (V_e w_e)^T C_e per element
            basis = self._member_values(mids, values @ weights[..., None])
            ints[self._slots(mids)] = basis[:, :, 0].sum(axis=1)
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
        level, pos = self.mesh.macro_element_of(lv, elements // self.space.hierarchy.q)
        if np.any(level < 0):
            raise AssertionError("macro-elements do not cover the active mesh")
        return self._first[level] + pos

    def _slots(self, mids):
        """Positions (k, nf) of the (member, function) pairs of same-shape members."""
        nf = self._fid_ptr[mids[0] + 1] - self._fid_ptr[mids[0]]
        return self._fid_ptr[mids][:, None] + np.arange(nf)

    def _stacks(self, levels):
        """Chunks of same-shape members with their rows of level arrays.

        ``levels[lv]`` holds arrays with one row per active level-``lv``
        element.  Yields ``(mids, arrays)``: the indices of members of one
        shape in canonical order, and each array gathered to (k, nel, ...)
        in member order.  The chunk's weighted systems ``[A | b]`` take at
        most :data:`STACK_BYTES`, unless one member alone takes more.
        """
        for group in self._groups:
            nel = self._elem_ptr[group[0] + 1] - self._elem_ptr[group[0]]
            nf = self._fid_ptr[group[0] + 1] - self._fid_ptr[group[0]]
            size = max(1, STACK_BYTES // (8 * nel * self._nq * (nf + 1)))
            for start in range(0, len(group), size):
                mids = group[start:start + size]
                g = self._elements[self._elem_ptr[mids][:, None] + np.arange(nel)]
                level = np.searchsorted(self._offsets, g, side="right") - 1
                out = [np.empty(g.shape + arr.shape[1:]) for arr in next(iter(levels.values()))]
                for lv, arrays in levels.items():
                    sel = level == lv
                    rows = g[sel] - self._offsets[lv]
                    for dst, arr in zip(out, arrays):
                        dst[sel] = arr[rows]
                yield mids, out

    def _member_values(self, mids, values):
        """Values (k, nel, n, nf) of the functions of same-shape members
        ``mids``, ``V_e^T C_e`` per element, from their tensor B-spline
        ``values`` (k, nel, nloc, n) in member order."""
        k, nel, nloc, _ = values.shape
        nf = self._fid_ptr[mids[0] + 1] - self._fid_ptr[mids[0]]
        first, count = self._entry_ptr[mids], np.diff(self._entry_ptr)[mids]
        entries = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        cells = self._cells[entries] + np.repeat(np.arange(k) * (nel * nloc * nf), count)
        table = np.zeros((k, nel, nloc, nf))
        np.put(table, cells, self._values[entries])
        return values.transpose(0, 1, 3, 2) @ table

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
        lv, box = member[0], self.mesh._checked(member[0], [member[1]])
        shape = self.space.hierarchy.boxes_shape(lv)
        pos, hit = sorted_lookup(self.mesh.macro_ids[lv], raveled(box, shape))
        require_no_box(box, ~hit, lv, "is not a member")
        return int(self._first[lv] + pos[0])

    def _member_arrays(self, idx):
        """The elements of member ``idx``: one array (n_lv, dim) per level, canonical."""
        g = self._elements[self._elem_ptr[idx]:self._elem_ptr[idx + 1]]
        level = np.searchsorted(self._offsets, g, side="right") - 1
        return [
            self.space.element_rows(lv)[0][g[level == lv] - self._offsets[lv]]
            for lv in range(self.space.num_levels)
        ]

    def member_elements(self, member):
        """Active (level, element) pairs covered by the member."""
        arrays = self._member_arrays(self.member_index(member))
        return tuple((lv, e) for lv, arr in enumerate(arrays) for e in map(tuple, arr.tolist()))

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
        if not self.space.is_active_element(lv, tuple(e)):
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
    if not 0 <= region[0][0] <= region[-1][0] < space.num_levels:
        raise ValueError("region levels must lie in [0, %d)" % space.num_levels)
    elements = [[e for lv, e in region if lv == k] for k in range(space.num_levels)]
    gram = galerkin(space.quadrature(gauss_tensor(space), elements=elements))[0]
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


def _member_solves(partition, stacks):
    """Least-squares coefficients of the members in ``stacks``, placed at
    their (member, function) positions of a zero vector over all pairs.

    ``stacks`` yields ``(mids, (values, weights, target))`` as
    :meth:`ProjectorPartition._stacks` does: same-shape members and the
    partition's rule on their elements (tensor B-spline values (k, nel,
    nloc, nq), weights and target values (k, nel, nq)).  A numerically
    singular member raises :class:`~thbox.numerics.NonSPDError` naming the
    first one in canonical order.
    """
    local = np.zeros(len(partition._fids))
    failed = []
    for mids, (values, weights, target) in stacks:
        k, nel, _, nq = values.shape
        nf = partition._fid_ptr[mids[0] + 1] - partition._fid_ptr[mids[0]]
        # The coefficients solve the normal equations of the weighted sampled
        # system.  The Cholesky factor of the (column-equilibrated) normal
        # matrix is the R of a QR decomposition of the weighted value matrix
        # itself, which halves the condition number exponent: truncation can
        # leave near-parallel sliver restrictions on deep members, where the
        # explicitly squared Gramian loses up to eight digits.  Factoring
        # [A | b] puts Q^T b in the last column of R, so Q is never formed.
        root = np.sqrt(weights)
        ab = np.empty((k, nel, nq, nf + 1))
        ab[..., :nf] = partition._member_values(mids, values)
        ab[..., :nf] *= root[..., None]
        ab[..., nf] = root * target
        ab = ab.reshape(k, nel * nq, nf + 1)
        a = ab[:, :, :nf]
        col = np.sqrt(np.einsum("kij,kij->kj", a, a))
        a /= col[:, None, :]
        r = np.linalg.qr(ab, mode="r")
        # diag(r)^2 are the Cholesky pivots; equilibration makes the trace the
        # member's function count; fewer sample rows than functions is a 0 pivot
        pivots = np.zeros((k, nf))
        diag = np.diagonal(r, axis1=1, axis2=2)[:, :nf]
        pivots[:, :diag.shape[1]] = np.square(diag)
        worst = pivots.min(axis=1)
        bad = np.flatnonzero(worst < SPD_PIVOT_REL * nf)
        if len(bad):
            failed.append((int(mids[bad[0]]), worst[bad[0]], nf))
            continue
        # R is upper triangular, so LU solves with it are back substitutions
        rr = r[:, :nf, :nf]
        y = np.linalg.solve(rr, r[:, :nf, nf:])
        # one refinement step with an extended-precision residual, corrected
        # through the semi-normal equations R^T R dy = A^T res; R^T with its
        # rows and columns reversed is upper triangular too
        yl = y.astype(np.longdouble)
        res = (ab[:, :, nf:] - np.einsum("kij,kjl->kil", a, yl, dtype=np.longdouble)).astype(float)
        rt = rr.transpose(0, 2, 1)[:, ::-1, ::-1]
        z = np.linalg.solve(rt, (a.transpose(0, 2, 1) @ res)[:, ::-1])[:, ::-1]
        y += np.linalg.solve(rr, z)
        local[partition._slots(mids)] = y[..., 0] / col
    if failed:
        idx, pivot, nf = min(failed)
        raise NonSPDError(
            "member %r Gramian pivot %.3e below %.1e * trace = %.3e"
            % (partition.members[idx], pivot, SPD_PIVOT_REL, SPD_PIVOT_REL * nf)
        )
    return local


def local_l2_project(partition, member, f):
    """Best L2 fit of ``f`` on one macro-element: map function id -> coefficient.

    The coefficients minimize the L2 distance between ``f`` and the span
    of the member's function restrictions; ``f`` is sampled on the
    member's elements only.  A numerically singular Gramian raises
    :class:`~thbox.numerics.NonSPDError`: it signals that the member
    supports linearly dependent restrictions and is a hard fault.
    """
    idx = partition.member_index(member)
    elements = partition._member_arrays(idx)
    blocks = partition.space.quadrature(partition._rule, fields=(f,), elements=elements)
    arrays = zip(*((block.values[0], block.weights, block.fields[0]) for block in blocks))
    stack = [np.concatenate(a)[None] for a in arrays]
    local = _member_solves(partition, [(np.array([idx]), stack)])
    coeffs = local[partition._fid_ptr[idx]:partition._fid_ptr[idx + 1]]
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
    local = _member_solves(partition, partition._stacks(levels))
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

    Per norm, one array per level aligned with ``space.element_rows(lv)[0]``
    (``None`` if not requested): ``l2`` (with ``rms``, the element L2 error
    divided by the square root of the element volume), ``linf`` (dense
    tensor sampling), and ``h1`` (full first-order Sobolev norm on the
    element).  Globals: ``error_l2``/``error_h1`` (square-summed in
    canonical element order), ``error_linf`` (max), and ``max_elem_l2`` —
    the largest element "rms" value, an element-size-independent measure.
    """

    def __init__(self, nelem, norms, l2=None, rms=None, linf=None, h1=None):
        self.nelem = int(nelem)
        self.norms = tuple(norms)
        self.l2, self.rms, self.linf, self.h1 = l2, rms, linf, h1
        self.error_l2 = None if l2 is None else _root_square_sum(l2)
        self.error_h1 = None if h1 is None else _root_square_sum(h1)
        self.error_linf = None if linf is None else float(np.concatenate(linf).max())
        self.max_elem_l2 = None if rms is None else float(np.concatenate(rms).max())

    def __repr__(self):
        parts = ["nelem=%d" % self.nelem]
        for name in ("error_l2", "error_linf", "error_h1"):
            val = getattr(self, name)
            if val is not None:
                parts.append("%s=%.3e" % (name, val))
        return "ErrorReport(%s)" % ", ".join(parts)


def _root_square_sum(levels):
    """Root of the squares of per-level arrays summed one by one, in order."""
    return float(np.sqrt(sum(v**2 for values in levels for v in values.tolist())))


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
    names = {"l2": ("l2", "rms"), "linf": ("linf",), "h1": ("h1",)}
    arrays = {name: [np.zeros(0)] * space.num_levels for n in norms for name in names[n]}
    if "l2" in norms or "h1" in norms:
        derivs = ((0,) * dim,)
        fields = (f,)
        if "h1" in norms:
            derivs += tuple(tuple(int(k == d) for k in range(dim)) for d in range(dim))
            fields += _gradient_components(f_grad, dim)
        for block in space.quadrature(gauss_tensor(space, extra=1), derivs, fields):
            w = block.weights
            sq = []
            for k in range(len(derivs)):
                err = block.evaluate(coeffs, k) - block.fields[k]
                sq.append((err * (w * err)).sum(axis=1))
            if "l2" in norms:
                arrays["l2"][block.level] = np.sqrt(sq[0])
                arrays["rms"][block.level] = np.sqrt(sq[0] / np.prod(block.sizes, axis=1))
            if "h1" in norms:
                arrays["h1"][block.level] = np.sqrt(sum(sq))
    if "linf" in norms:
        grid = tuple((tuple(np.linspace(0, 1, 2 * p + 3).tolist()), None) for p in space.degree)
        for block in space.quadrature(grid, fields=(f,)):
            err = np.abs(block.evaluate(coeffs) - block.fields[0]).max(axis=1)
            arrays["linf"][block.level] = err
    return ErrorReport(space.total_active_elements, norms, **arrays)


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
