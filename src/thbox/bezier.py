"""Macro-element L2 projection onto (truncated) hierarchical splines.

The projector runs in two passes on p-boxes: it needs a hierarchy whose box
size is the degree.  The domain is covered by the well-behaved and the
regular boxes of the classification (a :class:`ProjectorPartition`); on
every such macro-element the target is fitted by a local least-squares
problem over the basis functions that are nonzero there.  THB-splines are
locally linearly independent on p-boxes, so those restricted functions are
linearly independent and every local system has full column rank; the
member solves check it with a pivot threshold and raise
:class:`~thbox.numerics.NonSPDError` where it fails.  The local
coefficients are then blended per function with weights proportional to
the share of the function's integral carried by each macro-element
(``member_integrals`` over ``total_integrals``).  The composite map is
linear, local, and a projection: any function already in the space is
returned unchanged.  Members are named by their index in
``ProjectorPartition.members``, and every answer is an array: member ids,
function ids, integrals, coefficients.

Quadrature runs over whole levels (:meth:`ThbSpace.quadrature` blocks):
the target is sampled once per level, and a block keeps its B-spline
values as per-direction tables, so no level's ``(nel, nloc, nq)`` tensor
values exist.  The member integrals are sums of the elements'
sum-factorized B-spline integrals ``kron_d(T_d w_d)`` through the members'
``R_lv`` entries.  The member systems are solved in stacks: members are
grouped by route and shape (element count, function count), and each chunk
of a group, at most :data:`STACK_BYTES` of weighted systems, gathers its
elements' rows from the blocks' arrays, concatenated once in level order.
A tensor member, one box of its own level whose extraction block is a
permutation (each box B-spline is one of its functions, with coefficient
1.0), has the Kronecker product of its box's per-direction systems as its
weighted sampled system, and its fit is ``kron_d(P_d) b`` with the
per-direction projectors
(:meth:`~thbox.hierarchy.LevelSequence.box_projectors`), so its chunks
gather only the samples ``b``.  The other members (truncated, several
boxes, or overloaded) form their chunk's tensor values from the tables,
rebuild their dense extraction tables from the partition's flat member
arrays, form their function values ``V_e^T C_e`` and solve the weighted
sampled system by QR, so their arithmetic, and with it the rounding floor
of the member systems, is that of the dense element values.  The error
reports read the blocks sum-factorized
(:meth:`~thbox.hierarchy.LevelBlock.evaluate`).  Rules are tensor Gauss
rules on active elements, where every basis function is a polynomial, so
Gramians and integrals are exact up to rounding.  A member's coefficients
do not depend on the chunk that holds it, and coefficient accumulation
always runs in canonical member order, so results are bit-reproducible.
"""

import numpy as np

from .hierarchy import (
    _contract, _tensor_values, as_coefficients, as_integer, gauss_tensor, unraveled,
)
from .numerics import SPD_PIVOT_REL, NonSPDError
from .qbox import QBoxMesh

_NORMS = ("l2", "linf", "h1")

#: Bytes of the weighted member systems ``[A | b]`` (of the samples ``b``
#: for tensor members) one stacked solve holds: a chunk takes as many
#: members of one group as fit, at least one.
STACK_BYTES = 2**20


class ProjectorPartition:
    """Covering of the domain by non-overloaded macro-elements.

    The members are the well-behaved plus the regular boxes of the space's
    classification, in canonical order (level-major, lexicographic by box
    index): the mesh's ``macro_ids``.  ``members`` is an (n, 1 + dim) int
    array whose row ``i`` is ``(level, *box)`` of member ``i``; every
    member-taking call takes the int index ``i``.  The hierarchy's box size
    must equal the degree (p-boxes), on which the members support linearly
    independent function restrictions; any other box size raises
    ``ValueError``.  A basis that is not truncated (``build_hb``) can still
    be dependent on a member, which surfaces as a
    :class:`~thbox.numerics.NonSPDError` in the local solves.

    Construction keeps flat arrays with member pointers: the active
    elements in member order; each member's distinct ``R_lv`` rows (its
    B-splines), with the member-local row of every element's B-splines;
    the ids of the functions nonzero on each member with their member
    integrals (summed per function in ``total_integrals``); and the
    ``R_lv`` nonzeros of the member's rows as cells of its dense extraction
    table.  The integrals come from the elements' sum-factorized B-spline
    integrals, with no tensor values.  ``_tensor`` flags the tensor
    members: one box of their own level whose extraction block is a
    permutation, each of its B-splines one function with coefficient 1.0.
    :meth:`_stacks` gathers chunks of members of one route and shape from
    the concatenated block arrays, and :meth:`_member_values` rebuilds
    their tables and forms their function values.
    """

    def __init__(self, space):
        hier = space.hierarchy
        if hier.q != tuple(space.degree):
            raise ValueError(
                "the projector needs p-boxes: box size %s differs from degree %s"
                % (hier.q, tuple(space.degree))
            )
        self.space = space
        self.mesh = mesh = QBoxMesh(space)
        self.members = np.concatenate([
            np.column_stack([np.full(len(ids), lv), unraveled(ids, hier.boxes_shape(lv))])
            for lv, ids in enumerate(mesh.macro_ids)
        ])
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
        # the integral of every element's B-splines, kron_d(T_d w_d), in member order
        elem_ints = np.concatenate([
            _tensor_values([t @ w[:, :, None] for t, w in zip(b.tables[0], b.direction_weights)])
            for b in space.quadrature(self._rule)
        ])[self._elements]
        # each member's distinct R_lv rows (its B-splines), and the member-local
        # row of every element's B-splines (element * nloc + row, member order)
        stack, first_row = space.stacked_extraction()
        rows = np.concatenate([local[lv] + first_row[lv] for lv in levels])[self._elements]
        nloc = rows.shape[1]
        keys, slot_rows = np.unique((owner[:, None] * stack.shape[0] + rows).ravel(),
                                    return_inverse=True)
        slot_rows = slot_rows.reshape(-1)
        row_ints = np.bincount(slot_rows, elem_ints.ravel(), len(keys))
        row_member, rows = np.divmod(keys, stack.shape[0])
        self._row_ptr = np.searchsorted(row_member, np.arange(len(self.members) + 1))
        slot_rows -= self._row_ptr[np.repeat(owner, nloc)]
        self._slot_rows = slot_rows.astype(np.int32)
        del elem_ints, keys, slot_rows
        # their R_lv nonzeros: the member's functions and its table over its rows
        sub = stack[rows]
        entry_row = np.repeat(np.arange(len(rows)), np.diff(sub.indptr))
        member = row_member[entry_row]
        keys, pair = np.unique(member * space.ndof + sub.indices, return_inverse=True)
        self._fids = (keys % space.ndof).astype(sub.indices.dtype)
        self._fid_ptr = np.searchsorted(keys // space.ndof, np.arange(len(self.members) + 1))
        self._entry_ptr = np.searchsorted(member, np.arange(len(self.members) + 1))
        col = pair - self._fid_ptr[member]
        nf = np.diff(self._fid_ptr)
        self._cells = (entry_row - self._row_ptr[member]) * nf[member] + col
        self._values = sub.data
        ints = np.bincount(pair, self._values * row_ints[entry_row], len(keys))
        # tensor members: one box of their own level whose extraction block is
        # a permutation, each of its B-splines one function with coefficient 1.0
        q, m, p = (np.array(v) for v in (hier.q, space.multiplicity, space.degree))
        nel = np.diff(self._elem_ptr)
        single = (self._values == 1.0) & (np.diff(sub.indptr) == 1)[entry_row]
        self._tensor = ((nel == np.prod(q)) & (nf == np.prod((q - 1) * m + p + 1))
                        & (np.bincount(member, ~single, len(self.members)) == 0))

        # members grouped by route and shape (elements, functions), tensor
        # members by level too, canonical within a group
        route = np.where(self._tensor, self.members[:, 0], -1)
        order = np.lexsort((route, nf, nel))
        cut = np.flatnonzero(np.diff(nel[order]) | np.diff(nf[order]) | np.diff(route[order])) + 1
        self._groups = np.split(order, cut)
        self._nq = int(np.prod([len(pts) for pts, _ in self._rule]))

        total = np.bincount(self._fids, ints, space.ndof)
        if np.any(total <= 0.0):
            raise AssertionError("a basis function escaped every macro-element")
        self._ints = ints
        self._shares = ints / total[self._fids]
        self.total_integrals = total

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

    def _stacks(self, arrays):
        """Chunks of same-shape members with their rows of ``arrays``.

        Each array has one row per active element, levels in order and each
        level canonical, as the concatenated blocks of
        :meth:`~thbox.hierarchy.ThbSpace.quadrature` have them.  Yields
        ``(mids, rows)``: the indices of members of one group (route and
        shape) in canonical order, and each array gathered to (k, nel, ...)
        in member order; a tensor chunk gathers only the last array (the
        target) and has ``None`` for the others.  The chunk's weighted
        systems ``[A | b]``, or for tensor members their samples ``b``,
        take at most :data:`STACK_BYTES`, unless one member alone takes more.
        """
        for group in self._groups:
            nel = self._elem_ptr[group[0] + 1] - self._elem_ptr[group[0]]
            nf = self._fid_ptr[group[0] + 1] - self._fid_ptr[group[0]]
            tensor = self._tensor[group[0]]
            size = max(1, STACK_BYTES // (8 * nel * self._nq * (1 if tensor else nf + 1)))
            skip = len(arrays) - 1 if tensor else 0
            for start in range(0, len(group), size):
                mids = group[start:start + size]
                g = self._elements[self._elem_ptr[mids][:, None] + np.arange(nel)]
                yield mids, [None] * skip + [arr[g] for arr in arrays[skip:]]

    def _member_values(self, mids, values):
        """Values (k, nel, n, nf) of the functions of same-shape members
        ``mids``, ``V_e^T C_e`` per element, from their tensor B-spline
        ``values`` (k, nel, nloc, n) in member order.  ``C_e`` gathers the
        element's rows of its member's dense table over the member's rows."""
        k, nel, nloc, _ = values.shape
        nf = self._fid_ptr[mids[0] + 1] - self._fid_ptr[mids[0]]
        first, count = self._entry_ptr[mids], np.diff(self._entry_ptr)[mids]
        entries = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        nrows = np.diff(self._row_ptr)[mids]
        start = np.cumsum(nrows) - nrows  # each member's first row in the chunk's table
        table = np.zeros((nrows.sum(), nf))
        np.put(table, self._cells[entries] + np.repeat(start * nf, count), self._values[entries])
        slots = self._elem_ptr[mids][:, None] * nloc + np.arange(nel * nloc)
        table = table[self._slot_rows[slots] + start[:, None]].reshape(k, nel, nloc, nf)
        return values.transpose(0, 1, 3, 2) @ table

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return "ProjectorPartition(members=%d, ndof=%d)" % (
            len(self.members),
            self.space.ndof,
        )

    def _index(self, idx):
        """``idx`` as an index into ``members``; ValueError for a non-integer
        (:func:`as_integer`) or one out of range."""
        idx = as_integer(idx, "a member index")
        if not 0 <= idx < len(self.members):
            raise ValueError("member index %d out of range" % idx)
        return idx

    def member_elements(self, idx):
        """The active elements of member ``idx``: one array (n_lv, dim) per
        level, canonical, as :meth:`~thbox.hierarchy.ThbSpace.quadrature`
        takes them."""
        idx = self._index(idx)
        g = self._elements[self._elem_ptr[idx]:self._elem_ptr[idx + 1]]
        level = np.searchsorted(self._offsets, g, side="right") - 1
        return [
            self.space.element_rows(lv)[0][g[level == lv] - self._offsets[lv]]
            for lv in range(self.space.num_levels)
        ]

    def member_functions(self, idx):
        """Sorted ids of the functions nonzero on member ``idx``."""
        idx = self._index(idx)
        return self._fids[self._fid_ptr[idx]:self._fid_ptr[idx + 1]]

    def member_integrals(self, idx):
        """Member integrals of member ``idx``'s functions (aligned with ids)."""
        idx = self._index(idx)
        return self._ints[self._fid_ptr[idx]:self._fid_ptr[idx + 1]]


def _member_solves(partition, stacks):
    """Least-squares coefficients of the members in ``stacks``, placed at
    their (member, function) positions of a zero vector over all pairs.

    ``stacks`` yields ``(mids, (*tables, weights, target))`` as
    :meth:`ProjectorPartition._stacks` does: members of one group and the
    partition's rule on their elements, that is per-direction B-spline
    tables (k, nel, n_d, nq_d) (tensor values (k, nel, nloc, nq) are the
    one-table case), weights and target values (k, nel, nq).  Tensor
    members take :func:`_tensor_solves`, which reads only the target.  The
    others form their chunk's tensor values and solve the weighted sampled
    system by QR; a numerically singular member raises
    :class:`~thbox.numerics.NonSPDError` naming the first one in canonical
    order.
    """
    local = np.zeros(len(partition._fids))
    failed = []
    for mids, (*tables, weights, target) in stacks:
        nf = partition._fid_ptr[mids[0] + 1] - partition._fid_ptr[mids[0]]
        if partition._tensor[mids[0]]:
            # a tensor member's entry i is its box B-spline i, in box order
            cells = partition._cells[partition._entry_ptr[mids][:, None] + np.arange(nf)]
            local[partition._fid_ptr[mids][:, None] + cells % nf] = _tensor_solves(
                partition, mids, target)
            continue
        k, nel, nq = target.shape
        values = _tensor_values([t.reshape(k * nel, *t.shape[2:]) for t in tables])
        values = values.reshape(k, nel, -1, nq)
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
        lv, *box = partition.members[idx].tolist()
        raise NonSPDError(
            "member %r Gramian pivot %.3e below %.1e * trace = %.3e"
            % ((lv, tuple(box)), pivot, SPD_PIVOT_REL, SPD_PIVOT_REL * nf)
        )
    return local


def _tensor_solves(partition, mids, target):
    """Coefficients (k, nf) of the box B-splines of tensor members ``mids``
    of one level, in box order, from their target values (k, nel, nq):
    ``kron_d(P_d) b``.

    A tensor member's weighted sampled system is the Kronecker product of
    its box's per-direction systems, so its least-squares fit is the
    product of their projectors ``P_d``
    (:meth:`~thbox.hierarchy.LevelSequence.box_projectors`), applied to the
    samples one direction at a time.  The samples are reordered from
    (element, point) to the box's grid, element-major per direction.
    """
    space, rule = partition.space, partition._rule
    q, dim, k = space.hierarchy.q, space.dim, len(mids)
    lv, boxes = int(partition.members[mids[0], 0]), partition.members[mids, 1:]
    grid = target.reshape(k, *q, *(len(pts) for pts, _ in rule))
    grid = grid.transpose(0, *(a for d in range(1, dim + 1) for a in (d, d + dim)))
    mats = [
        space.levels.box_projectors(lv, d, q[d], pts, wts)[boxes[:, d]].transpose(0, 2, 1)
        for d, (pts, wts) in enumerate(rule)
    ]
    return _contract(grid.reshape(k, -1), mats)


class ProjectionResult:
    """Coefficient vector of a projection onto a hierarchical space; the
    estimators take ``coefficients``, not the result."""

    def __init__(self, coefficients):
        self.coefficients = np.asarray(coefficients, dtype=float)

    def __repr__(self):
        return "ProjectionResult(ndof=%d)" % len(self.coefficients)


def bezier_project(space, f, partition=None):
    """Two-pass macro-element projection of ``f`` onto the space.

    Runs a local least-squares fit on every partition member and blends
    the local coefficients with the members' smoothing weights: a
    function's weight on a member is its member integral over its total
    integral.  The result is linear in ``f``, reproduces every function of
    the space, and on an element depends on ``f`` only on the members that
    meet the support of a function nonzero on the element's own member.
    The blocks' tables, weights and samples are concatenated once, in level
    order, and the chunks gather from them.  Member accumulation runs in
    canonical order, so repeated runs are bit-identical.
    """
    if partition is None:
        partition = ProjectorPartition(space)
    elif partition.space is not space:
        raise ValueError("partition belongs to a different space")
    blocks = space.quadrature(partition._rule, fields=(f,))
    arrays = [np.concatenate(a) for a in zip(*((*b.tables[0], b.weights, b.fields[0])
                                                for b in blocks))]
    local = _member_solves(partition, partition._stacks(arrays))
    coeffs = np.bincount(partition._fids, partition._shares * local, space.ndof)
    return ProjectionResult(coeffs)


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


def error_report(space, f, coeffs, norms=_NORMS, f_grad=None):
    """Quadrature errors of a coefficient vector, per active element and global.

    ``coeffs`` is a numeric vector of length ``space.ndof``
    (:func:`~thbox.hierarchy.as_coefficients`).  ``norms`` selects among
    "l2", "linf", and "h1"; the "h1" norm needs ``f_grad``, mapping points
    (npts, dim) to gradients (npts, dim).  L2 and H1 use per-element Gauss
    quadrature one order above the Gramian rule; the Linf estimate samples
    a dense per-element tensor grid of ``2*p+3`` points per direction.
    Both read one level block at a time through
    :meth:`~thbox.hierarchy.LevelBlock.evaluate`, so they hold per-direction
    tables and ``(nel, nq)`` samples, no tensor values.
    """
    coeffs = as_coefficients(coeffs, space.ndof)
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
            del block  # freed before the next block is built
    if "linf" in norms:
        grid = tuple((tuple(np.linspace(0, 1, 2 * p + 3).tolist()), None) for p in space.degree)
        for block in space.quadrature(grid, fields=(f,)):
            arrays["linf"][block.level] = np.abs(block.evaluate(coeffs) - block.fields[0]).max(axis=1)
            del block
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
