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
elements' rows from those blocks.  Rules are tensor Gauss rules on active
elements, where every basis function is a polynomial, so Gramians and
integrals are exact up to rounding.  Local solves over distinct
macro-elements are independent; coefficient accumulation always runs in
canonical member order, so results are bit-reproducible.
"""

import numpy as np
import scipy.linalg

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

    Construction precomputes, per member, the active elements covered, the
    ids of the functions nonzero on it, and those functions' integrals
    over the member; the whole-domain integral of every function (the sum
    of its member integrals) is cached as well.
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

        levels = {block.level: block for block in space.quadrature(self._rule)}
        owner = np.concatenate([self._owners(lv, b.elements) for lv, b in levels.items()])
        level = np.concatenate([np.full(len(b.elements), lv) for lv, b in levels.items()])
        where = np.concatenate([np.arange(len(b.elements)) for b in levels.values()])
        # a stable sort keeps each member's elements level-major, then canonical
        order = np.argsort(owner, kind="stable")
        owner, level, where = owner[order], level[order], where[order]
        cuts = np.flatnonzero((np.diff(owner) != 0) | (np.diff(level) != 0)) + 1
        starts = np.concatenate([[0], cuts])
        # per member: (level, positions in the level's canonical block)
        member_pos = [[] for _ in self.members]
        for idx, lv, p in zip(owner[starts].tolist(), level[starts].tolist(), np.split(where, cuts)):
            member_pos[idx].append((lv, p))
        member_pos = tuple(tuple(mp) for mp in member_pos)
        member_elems = tuple(
            tuple((lv, space.active_elements(lv)[i]) for lv, p in mp for i in p.tolist())
            for mp in member_pos
        )
        member_fids = []
        member_ints = []
        total = np.zeros(space.ndof)
        for pos in member_pos:
            blocks = [levels[lv].take(p) for lv, p in pos]
            fids = np.unique(np.concatenate([block.functions() for block in blocks]))
            ints = np.concatenate(
                [(block.basis(fids) @ block.weights[:, :, None])[:, :, 0] for block in blocks]
            ).sum(axis=0)
            member_fids.append(fids)
            member_ints.append(ints)
            total[fids] += ints
        if np.any(total <= 0.0):
            raise AssertionError("a basis function escaped every macro-element")
        self._member_elems = member_elems
        self._member_pos = member_pos
        self._member_fids = tuple(member_fids)
        self._member_ints = tuple(member_ints)
        self.total_integrals = total
        fid_members = [[] for _ in range(space.ndof)]
        for idx, fid_arr in enumerate(self._member_fids):
            for fid in fid_arr.tolist():
                fid_members[fid].append(idx)
        self._fid_members = tuple(tuple(v) for v in fid_members)

    def _owners(self, lv, elements):
        """Member index of each active level-``lv`` element (n, dim)."""
        level, pos = self.mesh.macro_element_of(lv, elements // self.mesh.q)
        if np.any(level < 0):
            raise AssertionError("macro-elements do not cover the active mesh")
        return self._first[level] + pos

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
        return self._member_elems[self.member_index(member)]

    def member_functions(self, member):
        """Sorted ids of the functions nonzero on the member."""
        return self._member_fids[self.member_index(member)]

    def member_integrals(self, member):
        """Member integrals of the member's functions (aligned with ids)."""
        return self._member_ints[self.member_index(member)]

    def member_of_element(self, lv, e):
        """Index of the unique member covering active element (lv, e)."""
        if not (0 <= lv < self.space.num_levels and self.space.is_active_element(lv, tuple(e))):
            raise ValueError("element %s of level %d is not active" % (e, lv))
        return int(self._owners(lv, np.array([e]))[0])

    def members_for_function(self, fid):
        """Indices of the members on which function ``fid`` is nonzero."""
        if not 0 <= fid < self.space.ndof:
            raise IndexError("function id %d out of range" % fid)
        return self._fid_members[fid]


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
    blocks = list(space.quadrature(gauss_tensor(space), elements=region))
    fids = np.unique(np.concatenate([block.functions() for block in blocks]))
    gram = sum(block.gram() for block in blocks)
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
    return svd_rank(scale[:, None] * gram * scale[None, :]).rank == len(fids)


def _local_solve(partition, idx, blocks):
    """Least-squares coefficients on member ``idx``: (fids, coeffs).

    ``blocks`` are the member's quadrature blocks of the partition's rule,
    with the target as their one field.
    """
    fids = partition._member_fids[idx]
    a = np.vstack(
        [
            (block.basis(fids) * np.sqrt(block.weights)[:, None, :])
            .transpose(0, 2, 1)
            .reshape(-1, len(fids))
            for block in blocks
        ]
    )
    b = np.concatenate(
        [(np.sqrt(block.weights) * block.fields[0]).ravel() for block in blocks]
    )
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
    if np.min(pivots) < SPD_PIVOT_REL * len(fids):
        raise NonSPDError(
            "member %r Gramian pivot %.3e below %.1e * trace = %.3e"
            % (partition.members[idx], np.min(pivots), SPD_PIVOT_REL,
               SPD_PIVOT_REL * len(fids))
        )
    y = scipy.linalg.solve_triangular(r, q.T @ b)
    resid = np.asarray(
        b.astype(np.longdouble) - scaled.astype(np.longdouble) @ y.astype(np.longdouble),
        dtype=float,
    )
    y = y + scipy.linalg.solve_triangular(r, q.T @ resid)
    return fids, y / col


def local_l2_project(partition, member, f):
    """Best L2 fit of ``f`` on one macro-element: map function id -> coefficient.

    The coefficients minimize the L2 distance between ``f`` and the span
    of the member's function restrictions.  A numerically singular Gramian
    raises :class:`~thbox.numerics.NonSPDError`: it signals that the
    member supports linearly dependent restrictions and is a hard fault.
    """
    idx = partition.member_index(member)
    blocks = partition.space.quadrature(
        partition._rule, fields=(f,), elements=partition._member_elems[idx]
    )
    fids, coeffs = _local_solve(partition, idx, list(blocks))
    return {int(j): float(c) for j, c in zip(fids.tolist(), coeffs)}


def smoothing_weights(partition, fid):
    """Averaging weights of function ``fid``: map member -> integral share.

    The weight of member E is the integral of the function over E divided
    by its integral over the whole domain; the weights of the members
    meeting the function's support sum to one.
    """
    if not 0 <= fid < partition.space.ndof:
        raise IndexError("function id %d out of range" % fid)
    total = partition.total_integrals[fid]
    out = {}
    for idx in partition._fid_members[fid]:
        fids = partition._member_fids[idx]
        pos = int(np.searchsorted(fids, fid))
        out[partition.members[idx]] = float(partition._member_ints[idx][pos] / total)
    return out


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
    coeffs = np.zeros(space.ndof)
    levels = {block.level: block for block in space.quadrature(partition._rule, fields=(f,))}
    for idx in range(len(partition.members)):
        blocks = [levels[lv].take(pos) for lv, pos in partition._member_pos[idx]]
        fids, local = _local_solve(partition, idx, blocks)
        share = partition._member_ints[idx] / partition.total_integrals[fids]
        coeffs[fids] += share * local
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
    seen = set()
    for fid in partition._member_fids[idx].tolist():
        seen.update(partition._fid_members[fid])
    members = [partition.members[i] for i in sorted(seen)]
    dim = partition.space.dim
    lo = [np.inf] * dim
    hi = [-np.inf] * dim
    for mlv, box in members:
        for d, (a, b) in enumerate(partition.mesh.box_bounds(mlv, box)):
            lo[d] = min(lo[d], a)
            hi[d] = max(hi[d], b)
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
            fields += tuple(_gradient_component(f_grad, d, dim) for d in range(dim))
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


def _gradient_component(f_grad, d, dim):
    """Component ``d`` of ``f_grad`` as a field; ``f_grad`` must give (npts, dim)."""

    def component(pts):
        grads = np.asarray(f_grad(pts), dtype=float)
        if grads.shape != (len(pts), dim):
            raise ValueError("f_grad must return an (npts, dim) array")
        return grads[:, d]

    return component
