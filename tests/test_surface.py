"""The package's import footprint and the public names the benchmark reads.

``bench/tracing.py`` wraps the methods and functions of its ``SPANS`` table
(a missing one raises ``KeyError`` in ``install``) and ``bench/workloads.py``
reads spaces through ``functions``, ``active_elements`` and ``eval_all_at``;
neither runs under Tier-1 otherwise, so a deleted name would only show in a
``--trace 1`` run or a workload's check.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from thbox import bezier, hierarchy
from thbox.qbox import refine_qboxes

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_import_leaves_sparse_linalg_unloaded():
    code = "import sys, thbox; print('scipy.sparse.linalg' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return tracing, workloads


@pytest.fixture(scope="module")
def space(bench):
    """A p=2 space of 2x2 boxes of 2x2 elements with one box refined."""
    _, workloads = bench
    return refine_qboxes(workloads._uniform_space((2, 2), (2, 2), (2, 2)), [(0, (0, 0))])


def _owner_attr(modname, attr):
    owner = sys.modules["thbox." + modname]
    if "." in attr:
        clsname, attr = attr.split(".")
        return getattr(owner, clsname).__dict__, attr
    return vars(owner), attr


def test_tracer_installs_every_span_and_uninstalls(bench, space):
    tracing, workloads = bench
    before = {}
    for modname, attr, _, _ in tracing.SPANS:
        table, key = _owner_attr(modname, attr)
        before[modname, attr] = table[key]
    tracer = tracing.Tracer("test")
    uninstall = tracing.install(tracer)
    try:
        for modname, attr, _, _ in tracing.SPANS:
            table, key = _owner_attr(modname, attr)
            assert table[key] is not before[modname, attr], attr
        traced = hierarchy.ThbSpace(space.levels, space.hierarchy)
        assert hierarchy.admissibility_class(traced) == 2
        rule = ((0.5,), (0.5,))
        fids, _ = traced.element_values(0, traced.active_elements(0)[-1], rule)
        assert len(fids)
    finally:
        uninstall()
    for modname, attr, _, _ in tracing.SPANS:
        table, key = _owner_attr(modname, attr)
        assert table[key] is before[modname, attr], attr
    assert tracer.calls["hierarchy.build"] == 1
    assert tracer.calls["hierarchy.admissibility_class"] == 1
    assert tracer.calls["hierarchy.element_values"] == 1
    assert tracer.counts["hierarchy.build_elems"] == space.total_active_elements


def test_level_counts(bench, space):
    _, workloads = bench
    counts = workloads.level_counts(space)
    assert counts["ndof_per_level"] == [len(space.active_ids(lv)) for lv in range(2)]
    assert sum(counts["ndof_per_level"]) == space.ndof
    assert counts["nelem_per_level"] == [12, 16]


def test_recheck_sup_error(bench, space):
    """A quadratic in the space is projected exactly, so the rechecked error
    is rounding; a perturbed coefficient shows."""
    _, workloads = bench
    exact = lambda p: p[:, 0] ** 2 + p[:, 0] * p[:, 1] - p[:, 1]
    coeffs = bezier.bezier_project(space, exact).coefficients
    assert workloads.recheck_sup_error(space, coeffs, exact, 0) < 1e-12
    coeffs[0] += 1.0
    assert workloads.recheck_sup_error(space, coeffs, exact, 0) > 1e-3
