"""Tests for the experiment driver: configs, artifacts, and SVG rendering."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_hierarchy, thb_space
from thbox import cli
from thbox.cli import (
    ConfigError,
    LEVEL_PALETTE,
    mesh_svg,
    normalize_config,
)
from thbox.hierarchy import DomainHierarchy

ROOT = pathlib.Path(__file__).resolve().parents[1]


def make_space(q, boxes0, degree, refined=()):
    return thb_space(DomainHierarchy(q, boxes0, refined), degree)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(tmp_path, payload, out="out", extra=()):
    cfg = write_config(tmp_path, payload)
    out_dir = tmp_path / out
    code = cli.main(["--config", cfg, "--out", str(out_dir), *extra])
    return code, out_dir


class TestMeshSvg:
    def test_uniform_mesh_one_rect_per_element(self):
        space = make_space((2, 2), (2, 2), (2, 2))
        doc = mesh_svg(space)
        assert doc.count("<rect ") == 16
        assert 'viewBox="0 0 1000 1000"' in doc
        fills = {part.split('"')[0] for part in doc.split('fill="')[1:]}
        assert fills == {LEVEL_PALETTE[0]}

    def test_two_level_mesh_counts_and_colors(self):
        space = make_space((2, 2), (2, 2), (2, 2), [{(0, 0)}])
        doc = mesh_svg(space)
        assert doc.count("<rect ") == space.total_active_elements
        fills = {part.split('"')[0] for part in doc.split('fill="')[1:]}
        assert fills == {LEVEL_PALETTE[0], LEVEL_PALETTE[1]}

    def test_vertical_axis_is_flipped(self):
        space = make_space((2, 2), (2, 2), (2, 2))
        doc = mesh_svg(space)
        # the (0, 0) element sits at the bottom-left of the viewBox
        assert '<rect x="0.00" y="750.00"' in doc.split("\n")[1]

    def test_byte_stable(self):
        one = mesh_svg(make_space((2, 2), (3, 3), (2, 2), [{(1, 1)}]))
        two = mesh_svg(make_space((2, 2), (3, 3), (2, 2), [{(1, 1)}]))
        assert one == two

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_element_by_element_rendering(self, seed):
        rng = np.random.default_rng(700 + seed)
        space = thb_space(
            random_hierarchy(rng, 2, (3, 3), (2, 3), max_levels=4, interface=True),
            (2, 2),
        )
        rects = []
        for lv in range(space.num_levels):
            for e in space.active_elements(lv):
                (x0, x1), (y0, y1) = space.levels[lv].element_bounds(e)
                rects.append(
                    '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" '
                    'stroke="#333333" stroke-width="1"/>'
                    % (1000.0 * x0, 1000.0 * (1.0 - y1), 1000.0 * (x1 - x0),
                       1000.0 * (y1 - y0), LEVEL_PALETTE[lv % len(LEVEL_PALETTE)])
                )
        assert mesh_svg(space).split("\n")[1:-2] == rects

    def test_three_dimensional_mesh_rejected(self):
        space = make_space((2, 2, 2), (2, 2, 2), (2, 2, 2))
        with pytest.raises(ValueError):
            mesh_svg(space)


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            normalize_config({"kind": "derham-check", "degreee": 2})

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind"):
            normalize_config({"degree": 2})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            normalize_config({"kind": "frobnicate"})

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "adapt-project", "degree": "2"},
            {"kind": "adapt-project", "theta_refine": 0.0},
            {"kind": "adapt-project", "theta_coarsen": 1.0},
            {"kind": "adapt-project", "tolerance": 0.0},
            {"kind": "mesh-info", "boxes": True},
            {"kind": "mesh-info", "refine_fraction": 1.5},
            {"kind": "converge-projection", "dim": 4},
            {"kind": "mesh-svg", "dim": 3},
        ],
    )
    def test_bad_values_rejected(self, payload):
        # the adapt ranges are the library's: checked as the run builds its config
        with pytest.raises(ConfigError):
            kind, params = normalize_config(payload)
            if kind.startswith("adapt-"):
                cli._adaptive_config(params)

    def test_defaults_filled_in(self):
        kind, params = normalize_config({"kind": "adapt-project"})
        assert kind == "adapt-project"
        assert params["theta_refine"] == 0.5
        assert params["tolerance"] == 1e-4
        assert params["elements"] == 16
        assert params["out_dir"] == "."
        assert params["seed"] == 0

    def test_cli_overrides(self):
        _, params = normalize_config(
            {"kind": "mesh-info", "seed": 3, "out_dir": "a"},
            out_dir="b",
            seed=9,
        )
        assert params["out_dir"] == "b"
        assert params["seed"] == 9
        with pytest.raises(ConfigError):
            normalize_config({"kind": "mesh-info"}, seed=-1)


class TestMainExitCodes:
    def test_missing_config_flag(self, capsys):
        assert cli.main([]) == 1
        assert "config" in capsys.readouterr().err

    def test_unreadable_config_file(self, tmp_path, capsys):
        assert cli.main(["--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["--config", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_module_entry_under_warning_filter(self):
        # `python -m thbox.cli` must not find thbox.cli already imported by
        # the package, which runpy reports as a RuntimeWarning
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "thbox.cli", "--help"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert out.returncode == 0
        assert out.stderr == ""
        assert out.stdout.startswith("usage: thbox")

    def test_unknown_field_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"kind": "mesh-info", "bogus": 1})
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("theta_refine", 0.0),
            ("theta_refine", 1.5),
            ("theta_coarsen", -0.1),
            ("theta_coarsen", 1.0),
            ("theta_coarsen", 0.95),
            ("admissibility_class", 1),
            ("tolerance", 0.0),
            ("max_iterations", 0),
            ("coarsen_cadence", -1),
            ("max_levels", 0),
        ],
    )
    @pytest.mark.parametrize("kind", ["adapt-project", "adapt-poisson"])
    def test_out_of_range_adapt_field_exits_one(self, tmp_path, capsys, kind, field, value):
        # one range rule per field: the library's, reported as one config error
        code, out_dir = run_cli(tmp_path, {"kind": kind, field: value})
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("thbox: config error: ")
        assert os.listdir(out_dir) == []


class TestDerhamCheck:
    def test_unrefined_complex_report(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, {"kind": "derham-check", "degree": [2, 2]})
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["h0"], report["h1"], report["h2"]) == (1, 0, 0)
        assert report["dims"] == [64, 112, 49]
        assert report["assumption3a"] and report["assumption3b"]
        assert report["residual"] <= 1e-10
        assert report["verdict"] == "exact"
        assert "derham-check" in capsys.readouterr().out

    def test_refined_complex_exits_zero(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path,
            {"kind": "derham-check", "degree": [2, 2], "central_refinements": 1},
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dims"] == [91, 166, 76]
        capsys.readouterr()

    def test_refined_three_dimensional_complex_exact(self, tmp_path, capsys):
        # one central refinement, 4,887 dofs
        code, out = run_cli(
            tmp_path, {"kind": "derham-check", "dim": 3, "central_refinements": 1}
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert sum(report["dims"]) == 4887
        assert report["cohomology"] == [1, 0, 0, 0] and report["verdict"] == "exact"
        capsys.readouterr()

    def test_complex_over_rank_check_limit_exits_two(self, tmp_path, capsys):
        # a valid 3D config of 91,125 dofs that the exactness check refuses:
        # not a config error, and no report
        code, out = run_cli(tmp_path, {"kind": "derham-check", "dim": 3, "boxes": 7})
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "79677" in err and "91125" in err and "config error" not in err
        assert not (out / "report.json").exists()


class TestMeshKinds:
    def test_mesh_info_payload(self, tmp_path, capsys):
        code, out = run_cli(
            tmp_path, {"kind": "mesh-info", "seed": 7, "levels": 3, "boxes": 4}
        )
        assert code == 0
        info = json.loads((out / "mesh.json").read_text())
        assert info["ndof"] > 0
        assert info["num_levels"] <= 3
        assert info["admissibility_class"] <= 2
        assert sum(entry["active"] for entry in info["levels"]) == info["nboxes"]
        capsys.readouterr()

    def test_mesh_svg_matches_info(self, tmp_path, capsys):
        payload = {"seed": 7, "levels": 3, "boxes": 4}
        _, info_out = run_cli(tmp_path, dict(payload, kind="mesh-info"), out="a")
        code, svg_out = run_cli(tmp_path, dict(payload, kind="mesh-svg"), out="b")
        assert code == 0
        info = json.loads((info_out / "mesh.json").read_text())
        doc = (svg_out / "mesh.svg").read_text()
        assert doc.count("<rect ") == info["nelem"]
        capsys.readouterr()

    def test_seed_changes_mesh(self, tmp_path, capsys):
        payload = {"kind": "mesh-svg", "levels": 3, "boxes": 4}
        _, a = run_cli(tmp_path, dict(payload, seed=1), out="a")
        _, b = run_cli(tmp_path, dict(payload, seed=2), out="b")
        assert (a / "mesh.svg").read_text() != (b / "mesh.svg").read_text()
        capsys.readouterr()

    def test_identical_seed_identical_bytes(self, tmp_path, capsys):
        payload = {"kind": "mesh-svg", "seed": 5, "levels": 3, "boxes": 4}
        _, a = run_cli(tmp_path, payload, out="a")
        _, b = run_cli(tmp_path, payload, out="b")
        assert (a / "mesh.svg").read_bytes() == (b / "mesh.svg").read_bytes()
        capsys.readouterr()


class TestConvergeProjection:
    def test_two_dimensional_family(self, tmp_path, capsys):
        payload = {
            "kind": "converge-projection",
            "dim": 2,
            "degree": 2,
            "steps": 4,
        }
        code, out = run_cli(tmp_path, payload)
        assert code == 0
        lines = (out / "converge.csv").read_text().strip().split("\n")
        assert lines[0] == "h,ndof,nelem,max_elem_l2,error_l2,error_h1,slope"
        assert len(lines) == 5
        slope = float(lines[-1].split(",")[-1])
        assert abs(slope - 3.0) <= 0.2
        log = capsys.readouterr().out
        assert "slope" in log

    def test_default_two_dimensional_config_passes(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, {"kind": "converge-projection", "dim": 2})
        assert code == 0
        capsys.readouterr()

    def test_errors_shrink_row_to_row(self, tmp_path, capsys):
        payload = {"kind": "converge-projection", "dim": 2, "degree": 2}
        _, out = run_cli(tmp_path, payload)
        rows = [
            line.split(",")
            for line in (out / "converge.csv").read_text().strip().split("\n")[1:]
        ]
        maxel = [float(r[3]) for r in rows]
        assert all(b < a for a, b in zip(maxel, maxel[1:]))
        capsys.readouterr()


class TestAdaptKinds:
    def test_adapt_project_run(self, tmp_path, capsys):
        payload = {
            "kind": "adapt-project",
            "elements": 8,
            "tolerance": 5e-2,
            "max_iterations": 8,
        }
        code, out = run_cli(tmp_path, payload)
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        niter = len(lines) - 1
        log = capsys.readouterr().out
        assert "%d iterations" % niter in log
        final = lines[-1].split(",")
        assert float(final[5]) <= 5e-2
        # one SVG per recorded step, rect count matching the final row
        svgs = sorted(p for p in os.listdir(out) if p.endswith(".svg"))
        assert svgs == ["mesh_step%03d.svg" % i for i in range(niter)]
        doc = (out / svgs[-1]).read_text()
        assert doc.count("<rect ") == int(final[2])

    def test_adapt_project_exhaustion_exits_two(self, tmp_path, capsys):
        payload = {
            "kind": "adapt-project",
            "elements": 8,
            "tolerance": 1e-10,
            "max_iterations": 2,
        }
        code, out = run_cli(tmp_path, payload)
        assert code == 2
        assert len((out / "trace.csv").read_text().strip().split("\n")) == 3
        capsys.readouterr()

    def test_adapt_project_level_cap_exits_two(self, tmp_path, capsys):
        # reaching max_levels ends an unconverged run, not a config error:
        # exit 2 with the trace and one SVG per pass written
        payload = {"kind": "adapt-project", "max_levels": 2, "tolerance": 1e-6}
        code, out = run_cli(tmp_path, payload)
        assert code == 2
        assert len((out / "trace.csv").read_text().strip().split("\n")) == 3
        assert sorted(p.name for p in out.glob("*.svg")) == ["mesh_step000.svg", "mesh_step001.svg"]
        assert "converged=False" in capsys.readouterr().out

    def test_adapt_poisson_immediate_convergence(self, tmp_path, capsys):
        payload = {
            "kind": "adapt-poisson",
            "elements": 6,
            "tolerance": 1e9,
            "max_iterations": 4,
        }
        code, out = run_cli(tmp_path, payload)
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(lines) == 2
        capsys.readouterr()

    def test_adapt_poisson_rejects_c0_space(self, tmp_path, capsys):
        # the residual estimator has no facet-jump terms: C^1 spaces only
        payload = {"kind": "adapt-poisson", "elements": 6, "multiplicity": 2}
        code, out = run_cli(tmp_path, payload)
        assert code == 1
        assert not (out / "trace.csv").exists()
        assert "multiplicity must be below the degree" in capsys.readouterr().err

    def test_adapt_project_reproducible(self, tmp_path, capsys):
        payload = {
            "kind": "adapt-project",
            "elements": 8,
            "tolerance": 5e-2,
            "max_iterations": 8,
        }
        _, a = run_cli(tmp_path, payload, out="a")
        _, b = run_cli(tmp_path, payload, out="b")
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        capsys.readouterr()

    def test_quiet_suppresses_log(self, tmp_path, capsys):
        payload = {"kind": "derham-check"}
        code, _ = run_cli(tmp_path, payload, extra=("--quiet",))
        assert code == 0
        assert capsys.readouterr().out == ""
