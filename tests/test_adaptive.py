"""Tests for the adaptive marking, projection, and Poisson drivers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from conftest import (
    NOT_VECTORS,
    admissible_spaces,
    box_max_oracle,
    box_sum_oracle,
    coarsen_candidates_oracle,
    coarsen_mark_oracle,
    dorfler_oracle,
    element_error_oracle,
    element_grid_points,
    indicator_dict,
    random_admissible_space,
    residual_oracle,
    thb_space,
)
from thbox.adaptive import (
    AdaptiveConfig,
    AdaptiveTrace,
    TraceStep,
    adapt_loop,
    adapt_poisson,
    adapt_project,
    dorfler_mark,
    poisson_solve,
    residual_estimator,
)
from thbox.adaptive import (
    _boundary_values,
    _coarsen_candidates,
    _coarsen_mark,
    _pairs,
)
from thbox.bezier import bezier_project, error_report
from thbox.hierarchy import DomainHierarchy, ThbSpace, admissibility_class
from thbox.numerics import assemble_csr
from thbox.qbox import AdmissibilityPolicy, box_reduce, refine_qboxes
from thbox.splinecore import gauss_rule


def unit_space(q, boxes0, degree):
    return thb_space(DomainHierarchy(q, boxes0), degree)


def tanh_ring(p):
    x = 2.0 * p[:, 0] - 1.0
    y = 2.0 * p[:, 1] - 1.0
    r = np.sqrt(x * x + y * y)
    return 1.0 - np.tanh((r - 0.3) / (0.05 * np.sqrt(2.0)))


class TestAdaptiveConfig:
    def test_defaults(self):
        cfg = AdaptiveConfig()
        assert cfg.theta_refine == 0.5
        assert cfg.theta_coarsen == 0.0
        assert cfg.admissibility_class == 2
        assert cfg.tolerance == 1e-4
        assert cfg.max_iterations == 25
        assert cfg.coarsen_cadence == 0
        assert cfg.max_levels == 10
        assert "AdaptiveConfig" in repr(cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta_refine": 0.0},
            {"theta_refine": 1.5},
            {"theta_coarsen": -0.1},
            {"theta_coarsen": 1.0},
            {"theta_refine": 0.3, "theta_coarsen": 0.3},
            {"tolerance": 0.0},
            {"max_iterations": 0},
            {"coarsen_cadence": -1},
            {"admissibility_class": 1},
            {"max_levels": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3)])
    def test_max_iterations_is_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            AdaptiveConfig(max_iterations=value)
        assert AdaptiveConfig(max_iterations=np.int64(3)).max_iterations == 3

    @pytest.mark.parametrize("value", [1.5, 1.0, True, np.float64(2)])
    def test_coarsen_cadence_is_an_integer(self, value):
        with pytest.raises(ValueError, match="coarsen_cadence must be an integer"):
            AdaptiveConfig(theta_coarsen=0.1, coarsen_cadence=value)
        assert AdaptiveConfig(coarsen_cadence=np.int64(2)).coarsen_cadence == 2


def mark(values, theta):
    """Dörfler masks of a per-level field given as nested lists, as lists."""
    return [m.tolist() for m in dorfler_mark([np.array(v, dtype=float) for v in values], theta)]


class TestDorflerMark:
    def test_four_box_example(self):
        assert mark([[4, 3, 2, 1]], 0.5) == [[True, False, False, False]]

    def test_theta_one_marks_all_positive(self):
        assert mark([[2.0, 0.0, 1.0]], 1.0) == [[True, False, True]]

    def test_all_zero_gives_empty_set(self):
        assert mark([[0.0] * 5], 0.7) == [[False] * 5]
        assert mark([[]], 0.7) == [[]]
        # squares that underflow to zero count as zero, at theta = 1 too
        assert mark([[1e-200, 0.0]], 1.0) == [[False, False]]

    def test_lexicographic_ties(self):
        # equal squares go by level-major position, as (level, box) pairs sort
        assert mark([[1.0, 1.0, 1.0, 1.0]], 0.5) == [[True, True, False, False]]
        assert mark([[1.0], [1.0, 1.0]], 0.5) == [[True], [True, False]]

    def test_rounding_ties_go_to_earlier_key(self):
        # squares one ulp apart tie after rounding; the earlier position wins
        assert mark([[1.0, float(np.nextafter(1.0, 2.0))]], 0.3) == [[True, False]]
        assert mark([[1.0, 1.0 + 1e-7]], 0.3) == [[False, True]]

    def test_sums_use_unrounded_squares(self):
        # rounded, the first square alone would reach the goal 1.0
        big = float(np.nextafter(1.0, 0.0))
        assert mark([[big, 1.0]], 1.0 / (big * big + 1.0)) == [[True, True]]

    @pytest.mark.parametrize("theta", [-0.1, 0.0, 1.2])
    def test_theta_out_of_range(self, theta):
        with pytest.raises(ValueError):
            dorfler_mark([np.array([1.0])], theta)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_indicator_values(self, bad):
        with pytest.raises(ValueError, match="level 1 "):
            dorfler_mark([np.array([1.0]), np.array([bad, 1.0])], 0.5)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.8])
    def test_minimal_cardinality_against_exhaustive(self, seed, theta):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 13))
        ind = rng.integers(0, 10, size).astype(float)
        (mask,) = dorfler_mark([ind], theta)
        marked = set(np.flatnonzero(mask).tolist())
        squares = ind * ind
        total = squares.sum()
        goal = theta * total
        if total == 0.0:
            assert marked == set()
            return
        assert sum(squares[k] for k in marked) >= goal
        best = None
        keys = range(size)
        for r in range(len(keys) + 1):
            for combo in itertools.combinations(keys, r):
                if sum(squares[k] for k in combo) >= goal:
                    best = r
                    break
            if best is not None:
                break
        assert len(marked) == best
        if marked:
            smallest = min(marked, key=lambda k: (squares[k], k))
            assert sum(squares[k] for k in marked - {smallest}) < goal


class TestCoarsenMark:
    def test_lowest_first_ties_by_key(self):
        sums = np.array([3.0, 1.0, 2.0, 1.0])
        assert _coarsen_mark(sums, 10.0, 0.2).tolist() == [False, True, False, True]
        assert not _coarsen_mark(sums, 10.0, 0.0).any()

    def test_rounding_ties_go_to_earlier_key(self):
        # sums one ulp apart tie after rounding; the earlier position wins
        sums = np.array([float(np.nextafter(1.0, 2.0)), 1.0])
        assert _coarsen_mark(sums, 3.0, 0.5).tolist() == [True, False]

    def test_prefix_sum_uses_unrounded_values(self):
        # 0.25 + (0.25 + 2**-53) exceeds the allowance 0.5 by one ulp; the
        # rounded values would fit it
        sums = np.array([0.25, 0.25 + 2.0**-53])
        assert _coarsen_mark(sums, 1.0, 0.5).tolist() == [True, False]


def random_field(rng, space, kind):
    """A seeded per-level indicator field: ``"random"`` values, ``"integers"``
    (exact ties), ``"ulps"`` (values a few ulps apart, which tie once
    rounded), ``"sparse"`` (mostly zero) or ``"zero"``."""
    field = []
    for lv in range(space.num_levels):
        n = len(space.hierarchy.active_boxes(lv))
        if kind == "random":
            values = rng.random(n) * 10.0 ** rng.integers(-3, 2, n)
        elif kind == "integers":
            values = rng.integers(0, 4, n).astype(float)
        elif kind == "ulps":
            values = rng.choice([0.5, 1.0, 1.5], n)
            for _ in range(3):
                step = rng.integers(-1, 2, n)
                values = np.where(step > 0, np.nextafter(values, 2.0), values)
                values = np.where(step < 0, np.nextafter(values, 0.0), values)
        elif kind == "sparse":
            values = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
        else:
            values = np.zeros(n)
        field.append(values)
    return field


class TestMarkingOracle:
    """The per-level array marking against the dict marking it replaced
    (``conftest.dorfler_oracle``, ``coarsen_candidates_oracle`` and
    ``coarsen_mark_oracle``): the same sets in both directions, on seeded
    multi-level fields with exact ties, rounding ties and zeros."""

    @pytest.mark.parametrize("kind", ["random", "integers", "ulps", "sparse", "zero"])
    @pytest.mark.parametrize("seed", range(6))
    def test_marks_match_oracle(self, seed, kind):
        rng = np.random.default_rng([seed, 17])
        dim = 2 + seed % 2
        space = random_admissible_space(
            rng, (2,) * dim, (3,) * dim if dim == 2 else (2,) * dim,
            rounds=3, max_levels=4, marks_per_round=3,
        )
        hier = space.hierarchy
        active = [hier._active_box_ids(lv) for lv in range(hier.num_levels)]
        field = random_field(rng, space, kind)
        ind = indicator_dict(space, field)
        eta = np.concatenate(field)
        squares = eta * eta
        total = np.cumsum(squares)[-1]
        for theta in (0.2, 0.5, 0.9, 1.0):
            marked = np.concatenate(dorfler_mark(field, theta))
            protected = dorfler_oracle(ind, theta)
            assert set(_pairs(hier, active, marked)) == protected
            parents, sums = _coarsen_candidates(space, squares, marked)
            candidates = coarsen_candidates_oracle(space, ind, protected)
            assert _pairs(hier, parents, np.ones(len(sums), dtype=bool)) == list(candidates)
            for theta_c in (0.05, 0.2, 0.6):
                weakest = _coarsen_mark(sums, total, theta_c)
                assert set(_pairs(hier, parents, weakest)) == coarsen_mark_oracle(
                    candidates, total, theta_c
                )


def last_set(values, value):
    """A copy of ``values`` with its last entry set to ``value``."""
    out = np.array(values, dtype=float)
    out[-1] = value
    return out


class TestAdaptLoop:
    @staticmethod
    def corner_estimate(sp, _):
        hier = sp.hierarchy
        ind = []
        for lv in range(hier.num_levels):
            nb = hier.boxes_shape(lv)
            values = []
            for b in hier.active_boxes(lv):
                x = (b[0] + 0.5) / nb[0]
                y = (b[1] + 0.5) / nb[1]
                values.append(float(np.exp(-(x * x + y * y) / 0.05)))
            ind.append(np.array(values))
        return ind, {}

    def test_below_tolerance_single_solve(self):
        space = unit_space((2, 2), (4, 4), (2, 2))
        calls = []
        cfg = AdaptiveConfig(tolerance=0.5, max_iterations=10)
        trace = adapt_loop(
            space,
            lambda sp: calls.append(1),
            lambda sp, _: ([np.full(len(sp.hierarchy.active_boxes(0)), 0.1)], {}),
            cfg,
        )
        assert trace.converged
        assert len(trace) == 1
        assert len(calls) == 1
        assert trace.final_space is space

    def test_exhaustion_returns_partial_trace(self):
        space = unit_space((2, 2), (4, 4), (2, 2))
        cfg = AdaptiveConfig(tolerance=1e-9, max_iterations=4)
        trace = adapt_loop(space, lambda sp: None, self.corner_estimate, cfg)
        assert not trace.converged
        assert len(trace) == 4
        assert trace[-1].ndof > trace[0].ndof

    def test_level_cap_ends_run_unconverged(self):
        # a Dörfler set that would refine past max_levels ends the run as
        # exhaustion does, instead of raising RefinementLimitError
        space = unit_space((2, 2), (4, 4), (2, 2))
        cfg = AdaptiveConfig(tolerance=1e-9, max_iterations=10, max_levels=3)
        trace = adapt_loop(space, lambda sp: None, self.corner_estimate, cfg)
        assert not trace.converged
        assert len(trace) < 10
        assert [s.space.hierarchy.num_levels for s in trace] == [1, 2, 3]

    def test_zero_theta_coarsen_matches_refine_only(self):
        cfgs = [
            AdaptiveConfig(theta_refine=0.4, theta_coarsen=0.0,
                           tolerance=1e-9, max_iterations=5, coarsen_cadence=2),
            AdaptiveConfig(theta_refine=0.4, tolerance=1e-9, max_iterations=5),
        ]
        traces = [
            adapt_loop(unit_space((2, 2), (4, 4), (2, 2)),
                       lambda sp: None, self.corner_estimate, cfg)
            for cfg in cfgs
        ]
        assert traces[0].csv() == traces[1].csv()

    def test_moving_feature_dofs_stay_bounded(self):
        def moving_estimate(step):
            ang = 2.0 * np.pi * step / 12.0
            cx, cy = 0.5 + 0.3 * np.cos(ang), 0.5 + 0.3 * np.sin(ang)

            def estimate(sp, _):
                hier = sp.hierarchy
                ind = []
                for lv in range(hier.num_levels):
                    nb = hier.boxes_shape(lv)
                    values = []
                    for b in hier.active_boxes(lv):
                        x = (b[0] + 0.5) / nb[0]
                        y = (b[1] + 0.5) / nb[1]
                        d2 = (x - cx) ** 2 + (y - cy) ** 2
                        values.append(float(np.exp(-d2 / 0.02)))
                    ind.append(np.array(values))
                return ind, {}

            return estimate

        state = {"step": 0}

        def estimate(sp, sol):
            out = moving_estimate(state["step"])(sp, sol)
            state["step"] += 1
            return out

        base = dict(theta_refine=0.4, tolerance=1e-9, max_iterations=24)
        coarse_cfg = AdaptiveConfig(theta_coarsen=0.2, coarsen_cadence=2, **base)
        trace = adapt_loop(unit_space((2, 2), (4, 4), (2, 2)),
                           lambda sp: None, estimate, coarse_cfg)
        state["step"] = 0
        refine_only = adapt_loop(unit_space((2, 2), (4, 4), (2, 2)),
                                 lambda sp: None, estimate, AdaptiveConfig(**base))
        late = [s.ndof for s in trace][8:]
        assert max(late) <= 2 * min(late)
        assert max(s.ndof for s in trace) < refine_only[-1].ndof / 2

    def test_intermediate_meshes_stay_admissible(self):
        for c in (2, 3):
            cfg = AdaptiveConfig(theta_refine=0.4, theta_coarsen=0.15,
                                 admissibility_class=c, tolerance=1e-9,
                                 max_iterations=6, coarsen_cadence=2)
            trace = adapt_loop(unit_space((2, 2), (4, 4), (2, 2)),
                               lambda sp: None, self.corner_estimate, cfg)
            for step in trace:
                assert admissibility_class(step.space) <= c

    def test_trace_csv_layout_and_roundtrip(self):
        space = unit_space((2, 2), (4, 4), (2, 2))
        cfg = AdaptiveConfig(theta_refine=0.4, tolerance=1e-9, max_iterations=3)
        trace = adapt_loop(space, lambda sp: None, self.corner_estimate, cfg)
        text = trace.csv()
        lines = text.strip().split("\n")
        assert lines[0] == "step,ndof,nelem,nboxes,error_l2,error_linf,eta_total"
        assert len(lines) == len(trace) + 1
        for line, step in zip(lines[1:], trace):
            fields = line.split(",")
            assert int(fields[0]) == step.step
            assert int(fields[1]) == step.ndof
            assert int(fields[2]) == step.nelem
            assert int(fields[3]) == step.nboxes
            assert float(fields[6]) == step.eta_total
            assert len(fields) == 7

    def test_trace_is_reproducible(self):
        def run():
            cfg = AdaptiveConfig(theta_refine=0.4, theta_coarsen=0.15,
                                 tolerance=1e-9, max_iterations=5,
                                 coarsen_cadence=2)
            return adapt_loop(unit_space((2, 2), (4, 4), (2, 2)),
                              lambda sp: None, self.corner_estimate, cfg)

        assert run().csv() == run().csv()

    @pytest.mark.parametrize(
        "spoil, level",
        [
            (lambda f: f[:-1], 1),
            (lambda f: f + [np.zeros(1)], 2),
            (lambda f: [f[0], f[1][:-1]], 1),
            (lambda f: [f[0], np.append(f[1], 0.0)], 1),
            (lambda f: [f[0], f[1].reshape(-1, 1)], 1),
            (lambda f: [f[0], last_set(f[1], np.nan)], 1),
            (lambda f: [last_set(f[0], np.inf), f[1]], 0),
            (lambda f: [f[0], last_set(f[1], -1e-300)], 1),
        ],
        ids=["missing-level", "extra-level", "short", "long", "2d", "nan", "inf", "negative"],
    )
    def test_bad_estimate_raises_naming_the_level(self, spoil, level):
        # an estimate that leaves out a box, or gives one a value no
        # indicator can have, is refused before any mark is taken
        space = refine_qboxes(unit_space((2, 2), (4, 4), (2, 2)), [(0, (0, 0))],
                              AdmissibilityPolicy())
        field, _ = self.corner_estimate(space, None)
        cfg = AdaptiveConfig(tolerance=1e-9, max_iterations=3)
        with pytest.raises(ValueError, match=r"\blevel %d\b" % level):
            adapt_loop(space, lambda sp: None, lambda sp, _: (spoil(field), {}), cfg)


class TestAdaptProject:
    def test_function_in_space_converges_immediately(self):
        space = unit_space((2, 2), (4, 4), (2, 2))
        cfg = AdaptiveConfig(tolerance=1e-10)
        trace = adapt_project(lambda p: p[:, 0] ** 2 + 0.5 * p[:, 1], space, cfg)
        assert trace.converged
        assert len(trace) == 1
        assert trace[0].error_linf <= 1e-10

    def test_tanh_ring_error_decreases_monotonically(self):
        space = unit_space((2, 2), (8, 8), (2, 2))
        cfg = AdaptiveConfig(theta_refine=0.5, admissibility_class=2,
                             tolerance=1e-3, max_iterations=15)
        trace = adapt_project(tanh_ring, space, cfg)
        assert trace.converged
        linfs = [s.error_linf for s in trace]
        assert linfs[-1] <= 1e-3
        assert all(b <= a for a, b in zip(linfs, linfs[1:]))
        for step in trace:
            assert admissibility_class(step.space) <= 2
        assert trace.csv() == adapt_project(
            tanh_ring, unit_space((2, 2), (8, 8), (2, 2)), cfg).csv()

    def test_indicator_stop_equals_sampled_sup_error(self):
        space = unit_space((2, 2), (4, 4), (2, 2))
        cfg = AdaptiveConfig(theta_refine=0.5, tolerance=5e-2, max_iterations=8)
        trace = adapt_project(tanh_ring, space, cfg)
        assert trace.converged
        assert trace[-1].error_linf < 5e-2
        assert trace[-2].error_linf >= 5e-2

    def test_three_dimensional_growth_beats_uniform(self):
        def corner(p):
            return np.exp(-(p[:, 0] ** 2 + p[:, 1] ** 2 + p[:, 2] ** 2) / 0.01)

        space = unit_space((2, 2, 2), (2, 2, 2), (2, 2, 2))
        cfg = AdaptiveConfig(theta_refine=0.3, tolerance=1e-8, max_iterations=3)
        trace = adapt_project(corner, space, cfg)
        linfs = [s.error_linf for s in trace]
        assert linfs[-1] < linfs[0] / 10
        # two adaptive passes reach level 2; uniform level-1 costs 10^3 dofs
        uniform_level1 = unit_space((2, 2, 2), (4, 4, 4), (2, 2, 2))
        assert trace[-1].ndof < uniform_level1.ndof


def poisson_system(space, f):
    """Independent stiffness/load assembly used as a residual oracle."""
    dim = space.dim
    pts, wts = gauss_rule(max(space.degree) + 1)
    refs = (tuple(pts.tolist()),) * dim
    derivs = ((0,) * dim,) + tuple(
        tuple(int(k == d) for k in range(dim)) for d in range(dim)
    )
    rows, cols, vals = [], [], []
    load = np.zeros(space.ndof)
    for lv in range(space.num_levels):
        for e in space.active_elements(lv):
            fids, basis = space.element_values(lv, e, refs, derivs=derivs)
            w = np.ones(1)
            for a, b in space.levels[lv].element_bounds(e):
                w = np.outer(w, (b - a) * wts).reshape(-1)
            block = np.zeros((len(fids), len(fids)))
            for d in range(dim):
                block += (basis[1 + d] * w) @ basis[1 + d].T
            rows.append(np.repeat(fids, len(fids)))
            cols.append(np.tile(fids, len(fids)))
            vals.append(block.reshape(-1))
            load[fids] += basis[0] @ (w * f(element_grid_points(space, lv, e, refs)))
    a = assemble_csr(np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals), (space.ndof, space.ndof))
    return a, load


def sinsin_exact(p):
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def sinsin_grad(p):
    return np.pi * np.stack(
        [
            np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ],
        axis=-1,
    )


def sinsin_rhs(p):
    return 2.0 * np.pi ** 2 * sinsin_exact(p)


class TestPoissonSolve:
    def test_zero_data_gives_zero_solution(self):
        space = unit_space((3, 3), (2, 2), (2, 2))
        u = poisson_solve(space, lambda p: np.zeros(len(p)))
        assert np.abs(u).max() == 0.0

    def test_manufactured_convergence_orders(self):
        errs = []
        for nb in (2, 4, 8):
            space = unit_space((3, 3), (nb, nb), (2, 2))
            u = poisson_solve(space, sinsin_rhs)
            rep = error_report(space, sinsin_exact, u,
                               norms=("l2", "h1"), f_grad=sinsin_grad)
            errs.append((rep.error_l2, rep.error_h1))
        for lo, hi in ((0, 1), (1, 2)):
            l2_slope = np.log2(errs[lo][0] / errs[hi][0])
            h1_slope = np.log2(errs[lo][1] / errs[hi][1])
            assert abs(l2_slope - 3.0) <= 0.25
            assert abs(h1_slope - 2.0) <= 0.25

    def test_harmonic_in_space_function_reproduced(self):
        space = unit_space((3, 3), (3, 3), (2, 2))
        lin = lambda p: p[:, 0] + 0.5 * p[:, 1]
        u = poisson_solve(space, lambda p: np.zeros(len(p)), g=lin)
        rep = error_report(space, lin, u, norms=("l2", "linf"))
        assert rep.error_linf <= 1e-11

    def test_one_dimensional_dirichlet_solution_in_space(self):
        """In 1D each facet is a point, where the trace mass is point
        evaluation: a quadratic solution with inhomogeneous end values is
        recovered on a refined p=2 space."""
        space = thb_space(DomainHierarchy((2,), (4,), [[(1,)]]), (2,))
        assert space.num_levels == 2
        exact = lambda p: 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 0] ** 2
        u = poisson_solve(space, lambda p: np.full(len(p), 6.0), g=exact)
        want = bezier_project(space, exact).coefficients
        assert_allclose(u, want, rtol=0, atol=1e-12)
        constrained, values = _boundary_values(space, exact)
        assert len(constrained) == 2
        assert_allclose(values, [1.0, 0.0], rtol=0, atol=1e-12)

    def test_linear_system_residual(self):
        space = unit_space((3, 3), (3, 3), (2, 2))
        u = poisson_solve(space, sinsin_rhs)
        a, b = poisson_system(space, sinsin_rhs)
        constrained, _ = _boundary_values(space, None)
        free = np.setdiff1d(np.arange(space.ndof), constrained)
        r = a[free][:, free] @ u[free] - b[free]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b[free])

    @pytest.mark.parametrize("dim", (2, 3), ids=("2d", "3d"))
    def test_linear_system_residual_on_three_levels(self, dim):
        hier = {
            2: DomainHierarchy((3, 3), (2, 2), [[(0, 0), (0, 1), (1, 0)],
                                                [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]]),
            3: DomainHierarchy((2, 2, 2), (2, 2, 2), [[(0, 0, 0)], [(0, 0, 0), (1, 0, 0)]]),
        }[dim]
        space = thb_space(hier, (2,) * dim)
        assert space.num_levels == 3
        # some function is truncated: its rows differ from the plain hierarchical basis
        plain = ThbSpace(space.levels, hier, truncated=False)
        assert any((space.extraction(lv) != plain.extraction(lv)).nnz for lv in range(3))
        f = lambda p: 1.0 + np.cos(p.sum(axis=1))
        g = lambda p: np.exp(p[:, 0]) * (1.0 + p[:, -1])
        u = poisson_solve(space, f, g=g)
        a, b = poisson_system(space, f)
        constrained, values = _boundary_values(space, g)
        assert np.array_equal(u[constrained], values)
        free = np.setdiff1d(np.arange(space.ndof), constrained)
        r = (a @ u - b)[free]
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(b[free])

    def test_refined_mesh_beats_uniform_start(self):
        hier = DomainHierarchy((3, 3), (2, 2), [{(0, 0), (0, 1), (1, 0), (1, 1)}])
        space = thb_space(hier, (2, 2))
        u = poisson_solve(space, sinsin_rhs)
        rep = error_report(space, sinsin_exact, u, norms=("l2",))
        coarse = unit_space((3, 3), (2, 2), (2, 2))
        rep0 = error_report(coarse, sinsin_exact,
                            poisson_solve(coarse, sinsin_rhs), norms=("l2",))
        assert rep.error_l2 < rep0.error_l2 / 4

    def test_rebuilt_space_reuses_level_tables(self):
        hier = DomainHierarchy((3, 3), (2, 2), [{(0, 0)}])
        space = thb_space(hier, (2, 2))
        u = poisson_solve(space, sinsin_rhs, g=sinsin_exact)
        before = len(space.levels._tables)
        rebuilt = ThbSpace(space.levels, hier)
        assert rebuilt is not space
        assert_allclose(poisson_solve(rebuilt, sinsin_rhs, g=sinsin_exact), u,
                        rtol=0, atol=1e-14)
        assert len(space.levels._tables) == before


class TestResidualEstimator:
    def test_exact_polynomial_solution_vanishes(self):
        space = unit_space((3, 3), (2, 2), (2, 2))
        f = lambda p: 2.0 * (p[:, 1] * (1 - p[:, 1]) + p[:, 0] * (1 - p[:, 0]))
        u = poisson_solve(space, f)
        est = residual_estimator(space, u, f)
        assert max(e.max() for e in est) <= 1e-12

    def test_unit_source_box_aggregate(self):
        space = unit_space((2, 2), (2, 2), (2, 2))
        one = lambda p: np.ones(len(p))
        est = residual_estimator(space, np.zeros(space.ndof), one)
        # each 0.25-wide element: diam^2 * vol = 2 * 0.25^2 * 0.25^2
        per_elem = 2.0 * 0.25 ** 4
        expected = np.sqrt(4.0 * per_elem)
        assert [e.shape for e in est] == [(len(space.hierarchy.active_boxes(0)),)]
        assert_allclose(est[0], expected, rtol=1e-12)

    def test_uniform_refinement_quarters_total(self):
        one = lambda p: np.ones(len(p))
        coarse = unit_space((2, 2), (2, 2), (2, 2))
        fine = unit_space((2, 2), (4, 4), (2, 2))
        tot_c = sum(v ** 2 for v in np.concatenate(residual_estimator(
            coarse, np.zeros(coarse.ndof), one)))
        tot_f = sum(v ** 2 for v in np.concatenate(residual_estimator(
            fine, np.zeros(fine.ndof), one)))
        assert_allclose(tot_c / tot_f, 4.0, rtol=1e-12)

    def test_wrong_coefficient_length(self):
        space = unit_space((2, 2), (2, 2), (2, 2))
        with pytest.raises(ValueError):
            residual_estimator(space, np.zeros(space.ndof + 1),
                               lambda p: np.ones(len(p)))

    @pytest.mark.parametrize("kind", sorted(NOT_VECTORS))
    def test_rejects_anything_but_a_coefficient_vector(self, kind):
        space = unit_space((2, 2), (2, 2), (2, 2))
        with pytest.raises(ValueError, match="coefficient vector must have length %d$" % space.ndof):
            residual_estimator(space, NOT_VECTORS[kind](space.ndof), lambda p: np.ones(len(p)))

    def test_rejects_c0_space(self):
        # no facet-jump terms: a C^0 space (multiplicity == degree) is refused
        space = thb_space(DomainHierarchy((2, 2), (2, 2)), (2, 2), (2, 2))
        with pytest.raises(ValueError, match="C\\^1"):
            residual_estimator(space, np.zeros(space.ndof),
                               lambda p: np.ones(len(p)))


def wave(p):
    return np.sin(3.0 * p.sum(axis=1)) + p[:, 0] ** 2


class TestElementArrays:
    """Per-level element arrays against element-by-element loops.

    The box reductions and the residual indicators (on C^1 spaces) must
    equal the dict oracles of ``conftest`` bit for bit.  ``error_report``'s level arrays go
    through the extraction matrices, the oracle through one element table
    per element, so they agree to rounding: relative 1e-12 with an absolute
    floor of 1e-14 (the errors of random coefficients are of order one).
    """

    def check(self, space):
        rng = np.random.default_rng(space.ndof)
        coeffs = rng.standard_normal(space.ndof)
        rep = error_report(space, wave, coeffs, norms=("l2", "linf"))
        l2, linf = element_error_oracle(space, wave, coeffs)
        for lv in range(space.num_levels):
            assert_allclose(rep.l2[lv], l2[lv], rtol=1e-12, atol=1e-14)
            assert_allclose(rep.linf[lv], linf[lv], rtol=1e-12, atol=1e-14)
        boxes = indicator_dict(space, box_reduce(space, rep.linf, np.maximum, -np.inf))
        assert boxes == box_max_oracle(space, rep.linf)
        draws = [rng.random(len(space.active_elements(lv))) for lv in range(space.num_levels)]
        boxes = indicator_dict(space, box_reduce(space, draws, np.add, 0.0))
        assert list(boxes.items()) == list(box_sum_oracle(space, draws).items())

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(dims=(2, 2)))
    def test_two_dimensional(self, space):
        self.check(space)

    @settings(max_examples=8, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(dims=(3, 3), max_p=2, max_boxes=2))
    def test_three_dimensional(self, space):
        self.check(space)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(admissible_spaces(dims=(2, 3), max_p=3, max_boxes=2, smooth=True))
    def test_residual_estimator(self, space):
        coeffs = np.random.default_rng(space.ndof).standard_normal(space.ndof)
        est = indicator_dict(space, residual_estimator(space, coeffs, wave))
        assert list(est.items()) == list(residual_oracle(space, coeffs, wave).items())


ALPHA, R0, XC = 60.0, 0.8, (-0.25, -0.25)


def front_r(p):
    return np.sqrt((p[:, 0] - XC[0]) ** 2 + (p[:, 1] - XC[1]) ** 2)


def front_exact(p):
    return np.arctan(ALPHA * (front_r(p) - R0))


def front_grad(p):
    r = front_r(p)
    t = ALPHA * (r - R0)
    du = ALPHA / (1 + t * t)
    return (du / r)[:, None] * np.stack(
        [p[:, 0] - XC[0], p[:, 1] - XC[1]], axis=-1
    )


def front_rhs(p):
    r = front_r(p)
    t = ALPHA * (r - R0)
    return 2 * ALPHA ** 2 * t / (1 + t * t) ** 2 - ALPHA / (r * (1 + t * t))


class TestAdaptPoisson:
    def test_front_estimator_decreases_and_tracks_h1(self):
        h1 = []

        def solve(sp):
            return poisson_solve(sp, front_rhs, g=front_exact)

        def estimate(sp, u):
            ind = residual_estimator(sp, u, front_rhs)
            rep = error_report(sp, front_exact, u,
                               norms=("l2", "h1"), f_grad=front_grad)
            h1.append(rep.error_h1)
            return ind, {"error_l2": rep.error_l2}

        space = unit_space((3, 3), (3, 3), (2, 2))
        cfg = AdaptiveConfig(theta_refine=0.9, admissibility_class=2,
                             tolerance=1e-6, max_iterations=6)
        trace = adapt_loop(space, solve, estimate, cfg)
        etas = [s.eta_total for s in trace]
        assert all(b < a for a, b in zip(etas, etas[1:]))
        assert np.corrcoef(etas, h1)[0, 1] >= 0.8
        for step in trace:
            assert admissibility_class(step.space) <= 2

    def test_wrapper_records_true_errors(self):
        space = unit_space((3, 3), (3, 3), (2, 2))
        cfg = AdaptiveConfig(theta_refine=0.9, tolerance=1e-6, max_iterations=3)
        trace = adapt_poisson(space, front_rhs, cfg, g=front_exact,
                              exact=front_exact)
        assert len(trace) == 3
        l2s = [s.error_l2 for s in trace]
        assert all(np.isfinite(l2s))
        assert l2s[-1] < l2s[0]
        assert trace.csv() == adapt_poisson(
            unit_space((3, 3), (3, 3), (2, 2)), front_rhs, cfg,
            g=front_exact, exact=front_exact).csv()


def single_point_field(p):
    """Written for one point; on an (npts, 2) array it reads two whole rows."""
    return np.sin(np.pi * p[0]) * np.sin(np.pi * p[1])


def column_field(p):
    """Right values in an (npts, 1) column instead of an (npts,) array."""
    return sinsin_exact(np.atleast_2d(p))[:, None]


@pytest.mark.parametrize("field", [single_point_field, column_field])
class TestFieldContract:
    """A field maps (npts, dim) to (npts,); nothing is retried point by point."""

    space = unit_space((2, 2), (2, 2), (2, 2))

    def test_bezier_project(self, field):
        with pytest.raises(ValueError, match="npts"):
            bezier_project(self.space, field)

    def test_poisson_load_and_boundary_data(self, field):
        with pytest.raises(ValueError, match="npts"):
            poisson_solve(self.space, field)
        with pytest.raises(ValueError, match="npts"):
            poisson_solve(self.space, sinsin_rhs, g=field)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_error_report(self, field, norm):
        with pytest.raises(ValueError, match="npts"):
            error_report(self.space, field, np.zeros(self.space.ndof), norms=(norm,))


def half_nan_field(p):
    """Finite on the left half of the square, NaN on the right half."""
    return np.where(p[:, 0] < 0.5, sinsin_exact(p), np.nan)


def inf_field(p):
    return np.where(p[:, 1] > 0.7, np.inf, 1.0)


@pytest.mark.parametrize("field", [half_nan_field, inf_field])
class TestNonFiniteFields:
    """A NaN or an infinity in a field raises instead of reaching a result:
    Python's ``max`` skips NaN, so an error report could read as converged."""

    space = unit_space((2, 2), (2, 2), (2, 2))

    def test_bezier_project(self, field):
        with pytest.raises(ValueError, match="non-finite"):
            bezier_project(self.space, field)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_error_report(self, field, norm):
        with pytest.raises(ValueError, match="non-finite"):
            error_report(self.space, field, np.zeros(self.space.ndof), norms=(norm,))

    def test_error_report_gradient(self, field):
        with pytest.raises(ValueError, match="non-finite"):
            error_report(self.space, sinsin_exact, np.zeros(self.space.ndof), norms=("h1",),
                         f_grad=lambda p: np.stack([field(p), field(p)], axis=1))

    def test_poisson_load_and_boundary_data(self, field):
        with pytest.raises(ValueError, match="non-finite"):
            poisson_solve(self.space, field)
        with pytest.raises(ValueError, match="non-finite"):
            poisson_solve(self.space, sinsin_rhs, g=field)
