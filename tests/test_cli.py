"""Command-line golden tests on tiny inputs: exit codes, headers, schemas."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from semisobolev import cli, minimize, models, waveguide
from semisobolev._util import atomic_write
from semisobolev.config import parse_geometry
from semisobolev.discretize import build_grid


def _read(path):
    lines = path.read_text().splitlines()
    config = [ln for ln in lines if ln.startswith("# ")]
    table = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return config, table[0], table[1:]


def _unconverged_models(monkeypatch, lam):
    """Every model-lattice solve (each model domain has a truncation face)
    returns an unconverged `lam`; the solves of the configured domain run."""
    real = minimize.minimize_quotient

    def solve(form, p, opts, coarse=None, start=None):
        if any("truncation" in faces for faces in form.grid.domain.bc):
            return SimpleNamespace(lam=lam, converged=False)
        return real(form, p, opts, coarse, start)

    monkeypatch.setattr(models, "_cache", {})
    monkeypatch.setattr(minimize, "minimize_quotient", solve)


@pytest.fixture
def disk_cfg(tmp_path):
    """The unit Neumann disk with V = 1."""
    cfg = tmp_path / "disk.cfg"
    cfg.write_text("domain = disk\nradius = 1.0\nV = 1.0\ngamma = 0\n")
    return cfg


@pytest.fixture
def interval_cfg(tmp_path):
    cfg = tmp_path / "interval.cfg"
    cfg.write_text("domain = interval\nbounds = -1 1\nbc = robin robin\n"
                   "V = 1.0\ngamma = 0\n")
    return cfg


class TestModel1d:
    @pytest.mark.parametrize("form", [["--sweep", "-0.9:0.9:3"],
                                      ["--sweep=-0.9:0.9:3"]])
    def test_sweep_golden(self, form, tmp_path):
        out = tmp_path / "m.csv"
        rc = cli.main(["model1d", "--p", "4", *form, "--out", str(out)])
        assert rc == 0
        config, header, rows = _read(out)
        assert config == ["# p = 4.0", "# seed = 0", "# sweep = -0.9:0.9:3"]
        assert header == ["c", "lambda_c", "u0", "T_escape"]
        assert [float(r[0]) for r in rows] == [-0.9, 0.0, 0.9]
        for r in rows:
            # p = 4: the shifted whole-line soliton in closed form
            c = float(r[0])
            exact = 2.0 * math.sqrt(2.0 / 3.0 + c - c ** 3 / 3.0)
            assert float(r[1]) == pytest.approx(exact, rel=1e-9)

    def test_negative_exponent_notation_value(self, tmp_path):
        out = tmp_path / "m.csv"
        assert cli.main(["model1d", "--p", "4", "--c", "-1e-3",
                         "--out", str(out)]) == 0
        _, _, rows = _read(out)
        assert [float(r[0]) for r in rows] == [-1e-3]

    def test_limited_row_is_strict_json(self, tmp_path):
        # next to c = 1 the escape time is large but finite
        out, js = tmp_path / "m.csv", tmp_path / "m.json"
        assert cli.main(["model1d", "--p", "4", "--sweep=0.9:0.9995:2",
                         "--out", str(out), "--json", str(js)]) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rows = json.loads(js.read_text(), parse_constant=refuse)["rows"]
        assert [r["T_escape"] for r in rows] == pytest.approx(
            [math.atanh(0.9), math.atanh(0.9995)], rel=1e-14)
        _, _, csv_rows = _read(out)
        assert float(csv_rows[1][3]) == pytest.approx(math.atanh(0.9995), rel=1e-11)

    def test_deep_tail_near_p_two(self, tmp_path):
        # p = 2.2: the DOP853 orbit could not be followed at c = -0.99,
        # and near c = 1 it drifted off the peak
        js = tmp_path / "m.json"
        assert cli.main(["model1d", "--p", "2.2", "--sweep=-0.99:0.999:2",
                         "--out", str(tmp_path / "m.csv"), "--json", str(js)]) == 0
        low, high = json.loads(js.read_text())["rows"]
        assert 0.0 < low["lambda_c"] < high["lambda_c"]
        assert high["T_escape"] == pytest.approx(10.0 * math.atanh(0.999), rel=1e-12)

    def test_csv_goes_to_stdout_without_out(self, capsys):
        assert cli.main(["model1d", "--p", "4", "--c", "0.5"]) == 0
        *csv, summary = capsys.readouterr().out.splitlines()
        assert csv[:4] == ["# p = 4.0", "# seed = 0", "# sweep = 0.5",
                           "c,lambda_c,u0,T_escape"]
        (row,) = [r.split(",") for r in csv[4:]]
        assert float(row[0]) == 0.5
        exact = 2.0 * math.sqrt(2.0 / 3.0 + 0.5 - 0.5 ** 3 / 3.0)
        assert float(row[1]) == pytest.approx(exact, rel=1e-9)
        assert summary.startswith("model1d: 1 rows, p=4.0")

    def test_missing_sweep_value_is_a_validation_error(self, capsys):
        assert cli.main(["model1d", "--p", "4", "--sweep"]) == 1
        assert "expected one argument" in capsys.readouterr().err


class TestLargeDomain:
    HEADER = ["R", "h", "lambda_semiclassical", "lambda_neumann", "ratio",
              "converged"]

    def test_golden(self, interval_cfg, tmp_path):
        out = tmp_path / "ld.csv"
        rc = cli.main(["large-domain", "--config", str(interval_cfg),
                       "--p", "4", "--R-list", "2,3", "--out", str(out)])
        assert rc == 0
        config, header, rows = _read(out)
        assert f"# config_file = {interval_cfg}" in config
        assert "# geometry.domain = interval" in config
        assert "# R_list = 2,3" in config and "# p = 4.0" in config
        assert header == self.HEADER
        assert [float(r[0]) for r in rows] == [2.0, 3.0]
        assert [r[-1] for r in rows] == ["1", "1"]

    def test_rows_are_the_sweep_at_h_R_minus_2(self, interval_cfg, tmp_path):
        # lambda_semiclassical is the sweep's lambda, lambda_neumann its
        # ratio, and the large-domain ratio that over the target, which the
        # sweep prints to 12 digits as the gap ratio / target - 1
        ld, sw = tmp_path / "ld.csv", tmp_path / "sw.csv"
        assert cli.main(["large-domain", "--config", str(interval_cfg),
                         "--p", "4", "--R-list", "2,4", "--out", str(ld)]) == 0
        assert cli.main(["sweep", "--config", str(interval_cfg), "--p", "4",
                         "--h-list", "0.25,0.0625", "--out", str(sw)]) == 0
        _, ld_header, ld_rows = _read(ld)
        _, sw_header, sw_rows = _read(sw)
        for a, b in zip(ld_rows, sw_rows, strict=True):
            a = dict(zip(ld_header, a))
            b = dict(zip(sw_header, b))
            pairs = [(a["h"], b["h"]), (a["lambda_semiclassical"], b["lambda"]),
                     (a["lambda_neumann"], b["ratio"]),
                     (a["ratio"], 1.0 + float(b["gap"]))]
            for x, y in pairs:
                assert float(x) == pytest.approx(float(y), rel=1e-12)
            assert a["converged"] == b["converged"] == "1"

    def test_unconverged_rung_is_flagged(self, interval_cfg, tmp_path,
                                         monkeypatch):
        real = minimize.minimize_quotient

        def unconverged(form, p, opts, coarse=None, start=None):
            res = real(form, p, opts, coarse, start)
            res.converged = False
            return res

        monkeypatch.setattr(minimize, "minimize_quotient", unconverged)
        out = tmp_path / "ld.csv"
        rc = cli.main(["large-domain", "--config", str(interval_cfg),
                       "--p", "4", "--R-list", "2", "--out", str(out)])
        assert rc == 2      # every row is written, then non-convergence
        _, header, rows = _read(out)
        assert header == self.HEADER
        assert rows[0][-1] == "0"

    def test_unconverged_reference_is_flagged(self, tmp_path, monkeypatch):
        # the d = 2 target is a grid solve; when it misses its tolerance
        # every ratio rests on it, so every row says so
        _unconverged_models(monkeypatch, 3.0)
        cfg = tmp_path / "disk.cfg"
        cfg.write_text("domain = disk\nradius = 0.3\nV = 1.0\ngamma = 0\n")
        out = tmp_path / "ld.csv"
        rc = cli.main(["large-domain", "--config", str(cfg), "--p", "4",
                       "--R-list", "2", "--out", str(out)])
        assert rc == 2      # every row is written, then non-convergence
        _, header, rows = _read(out)
        assert header == self.HEADER
        (row,) = rows
        assert row[-1] == "0"
        # the reference is the reflected radial value 2^{-1/2} x 3
        assert float(row[4]) == pytest.approx(
            float(row[3]) / (3.0 * 2.0 ** -0.5), rel=1e-11)

    @pytest.mark.parametrize("data", [
        "domain = interval\nbounds = -1 1\nbc = robin robin\nV = 1.0\n"
        "gamma = -0.5\n",
        "domain = interval\nbounds = -1 1\nbc = robin robin\nV = 2.0\n",
        "domain = interval\nbounds = -1 1\nbc = robin robin\n"
        "V = quadratic 1 0.5\n",
        "domain = disk\nradius = 1\nV = 1.0\nB = constant 1\n",
        "domain = rectangle\nbounds = 0 1 0 1\n"
        "bc = dirichlet dirichlet dirichlet dirichlet\nV = 1.0\n",
        "domain = interval\nbounds = -1 1\nbc = robin robin\nV = 1.0\n"
        "gamma = dirichlet\n",
        "domain = half-line\nhalfwidth = 3\nV = 1.0\n",
    ], ids=["gamma", "V=2", "quadratic-V", "constant-B", "dirichlet-bc",
            "gamma-dirichlet", "truncation"])
    def test_rejects_data_outside_the_reduction(self, data, tmp_path, capsys):
        # the reduction and its Neumann reference hold for V = 1, B = 0,
        # gamma = 0 on Robin faces only; anything else would be a quiet
        # wrong ratio
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(data)
        out = tmp_path / "ld.csv"
        rc = cli.main(["large-domain", "--config", str(cfg), "--p", "4",
                       "--R-list", "2", "--out", str(out)])
        assert rc == 1
        assert "error: large-domain: the reduction assumes" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    HEADER = ["h", "lambda", "ratio", "target", "gap", "center_x", "center_y",
              "mass_outside", "spacing", "converged"]

    def test_golden(self, interval_cfg, tmp_path):
        out = tmp_path / "sw.csv"
        rc = cli.main(["sweep", "--config", str(interval_cfg), "--p", "4",
                       "--h-list", "0.1,0.05", "--out", str(out)])
        assert rc == 0
        config, header, rows = _read(out)
        assert f"# config_file = {interval_cfg}" in config
        assert "# geometry.domain = interval" in config
        assert "# h_list = 0.1,0.05" in config and "# p = 4.0" in config
        assert header == self.HEADER
        assert [float(r[0]) for r in rows] == [0.1, 0.05]
        assert [r[-1] for r in rows] == ["1", "1"]
        for r in rows:
            # the zoom limit is reached up to mesh error on the interval
            assert abs(float(r[4])) < 1e-3

    def test_unconverged_target_is_flagged(self, tmp_path, monkeypatch):
        # the edge samples of a magnetic box are grid solves; an unconverged
        # one is only an upper bound, so the infimum behind every row's
        # target is unsure and each row says so
        _unconverged_models(monkeypatch, 3.0)
        cfg = tmp_path / "box.cfg"
        cfg.write_text("domain = rectangle\nbounds = -0.2 0.2 -0.2 0.2\n"
                       "V = 1.0\nB = constant 1.0\ngamma = 0\n")
        out = tmp_path / "sw.csv"
        rc = cli.main(["sweep", "--config", str(cfg), "--p", "2",
                       "--h-list", "0.5", "--out", str(out)])
        assert rc == 2      # every row is written, then non-convergence
        _, header, rows = _read(out)
        assert header == self.HEADER
        (row,) = rows
        assert row[-1] == "0"
        assert float(row[3]) == 2.0     # Tr+ B + V inside, below the fake


class TestConcentration:
    def test_rows_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the benchmark's p = 2 box map under one and two OpenBLAS threads,
        # each in a fresh interpreter (OpenBLAS reads the count on load):
        # the two CSVs agree byte for byte
        root = pathlib.Path(__file__).resolve().parents[1]
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"box{threads}.csv"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           str(root / "src"), os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "semisobolev.cli",
                            "--seed", "1", "concentration", "--config",
                            str(root / "perfbench" / "inputs" / "box.cfg"),
                            "--p", "2", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_golden(self, interval_cfg, tmp_path):
        out, js = tmp_path / "c.csv", tmp_path / "c.json"
        rc = cli.main(["concentration", "--config", str(interval_cfg),
                       "--p", "4", "--out", str(out), "--json", str(js)])
        assert rc == 0
        config, header, rows = _read(out)
        assert "# p = 4.0" in config
        assert not any(ln.startswith("# eps") for ln in config)
        assert "# geometry.bc = robin robin" in config
        assert header == ["x", "y", "kind", "lambda", "converged"]
        assert {r[4] for r in rows} == {"1"}
        kinds = [r[2] for r in rows]
        assert kinds.count("interior") == 25 and kinds.count("boundary") == 2
        # p = 4, V = 1: the whole-line soliton inside, the gamma = 0
        # half-line (c = 0) at the two Robin ends
        for r in rows:
            exact = 2.0 * math.sqrt(4.0 / 3.0 if r[2] == "interior" else 2.0 / 3.0)
            assert float(r[3]) == pytest.approx(exact, rel=1e-4)
        payload = json.loads(js.read_text())
        assert set(payload) == {"argmin", "config", "delta", "inf",
                                "unconverged"}
        assert payload["unconverged"] == 0
        assert payload["config"]["p"] == 4.0
        assert sorted(payload["argmin"]) == [[-1.0], [1.0]]
        assert payload["inf"] == pytest.approx(2.0 * math.sqrt(2.0 / 3.0), rel=1e-4)

    @pytest.mark.parametrize("box, p, solved", [
        # interval: every d = 1 value is a closed form, nothing to flag
        pytest.param(False, "2", set(), id="2"),
        pytest.param(False, "4", set(), id="4"),
        # magnetic box, p = 2: Tr+ B + V inside, a grid solve on the edge
        pytest.param(True, "2", {"boundary"}, id="magnetic-box-2"),
        # magnetic box, p = 4: grid solves inside and on the edge
        pytest.param(True, "4", {"interior", "boundary"}, id="magnetic-box-4"),
    ])
    def test_unconverged_samples_are_flagged(self, box, p, solved,
                                             interval_cfg, tmp_path,
                                             monkeypatch):
        # a grid solve that misses the gradient tolerance marks its row, is
        # counted in the JSON and makes the exit code 2
        cfg = interval_cfg
        if box:
            cfg = tmp_path / "box.cfg"
            cfg.write_text("domain = rectangle\nbounds = -1 1 -1 1\n"
                           "V = 1.0\nB = constant 1.0\ngamma = 0\n")
        _unconverged_models(monkeypatch, 1.25)
        out, js = tmp_path / "c.csv", tmp_path / "c.json"
        # a few samples suffice: the fake solve caches nothing, so each
        # sample builds its model lattice afresh
        rc = cli.main(["concentration", "--config", str(cfg), "--p", p,
                       "--n-interior", "4", "--n-boundary", "4",
                       "--out", str(out), "--json", str(js)])
        assert rc == (2 if solved else 0)
        _, header, rows = _read(out)
        assert header[-1] == "converged"
        assert {r[2] for r in rows} >= solved
        assert [r[4] for r in rows] == [
            "0" if r[2] in solved else "1" for r in rows]
        assert json.loads(js.read_text())["unconverged"] == sum(
            r[2] in solved for r in rows)

    @pytest.mark.parametrize("n_boundary", [1, 2, 3])
    def test_every_robin_face_is_sampled(self, n_boundary, tmp_path):
        # fewer than 4 boundary samples still put one on each face of the
        # magnetic box, whose boundary constant is below the interior b + V
        cfg = tmp_path / "box.cfg"
        cfg.write_text("domain = rectangle\nbounds = -1 1 -1 1\n"
                       "V = 1.0\nB = constant 1.0\ngamma = 0\n")
        out, js = tmp_path / "c.csv", tmp_path / "c.json"
        assert cli.main(["concentration", "--config", str(cfg), "--p", "2",
                         "--n-interior", "1", "--n-boundary", str(n_boundary),
                         "--out", str(out), "--json", str(js)]) == 0
        _, _, rows = _read(out)
        edges = sorted((float(r[0]), float(r[1])) for r in rows
                       if r[2] == "boundary")
        assert edges == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
        assert json.loads(js.read_text())["inf"] == pytest.approx(
            1.63843291582, rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_p_is_finite(self, disk_cfg, tmp_path):
        # at p = 1000 a random start's |x|^p overflows; the model solves
        # still give finite, converged values, the half-plane below the
        # plane, with no overflow warning on the way
        out, js = tmp_path / "c.csv", tmp_path / "c.json"
        assert cli.main(["concentration", "--config", str(disk_cfg),
                         "--p", "1e3", "--n-interior", "1", "--n-boundary",
                         "1", "--out", str(out), "--json", str(js)]) == 0
        _, _, rows = _read(out)
        values = {r[2]: float(r[3]) for r in rows}
        assert {r[4] for r in rows} == {"1"}
        assert 0.0 < values["boundary"] < values["interior"] < math.inf
        payload = json.loads(js.read_text())
        assert payload["inf"] == pytest.approx(values["boundary"], rel=1e-11)
        assert payload["argmin"] == [[1.0, 0.0]]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_p_1e6_is_finite(self, disk_cfg, tmp_path):
        # at p = 1e6 most nodes' |x|^p underflow to 0 and a growth of 0.2 %
        # overflows: the backtracking still converges every model solve,
        # to the value that a full L^p norm per trial reaches
        out, js = tmp_path / "c.csv", tmp_path / "c.json"
        assert cli.main(["--seed", "1", "concentration", "--config",
                         str(disk_cfg), "--p", "1e6", "--n-interior", "1",
                         "--n-boundary", "1", "--out", str(out), "--json",
                         str(js)]) == 0
        _, _, rows = _read(out)
        assert {r[4] for r in rows} == {"1"}
        assert json.loads(js.read_text())["inf"] == pytest.approx(
            0.469988813025, rel=1e-11)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_sample_exits_1(self, tmp_path, capsys):
        # V overflows on the outer ring and the rim of the radius-2 disk
        cfg = tmp_path / "disk.cfg"
        cfg.write_text("domain = disk\nradius = 2\nV = quadratic 1 1e308\n")
        out = tmp_path / "c.csv"
        rc = cli.main(["concentration", "--config", str(cfg), "--p", "4",
                       "--out", str(out)])
        assert rc == 1
        assert "error: V: value inf at x = (" in capsys.readouterr().err
        assert not out.exists()

    def test_field_sign_does_not_matter(self, tmp_path):
        # the models see |b|: B = -1 and B = 1 give the same rows, b + V
        # inside and the b = 1 half-plane constant on the Robin edges
        rows = {}
        for b in ("1.0", "-1.0"):
            cfg = tmp_path / f"box{b}.cfg"
            cfg.write_text("domain = rectangle\nbounds = -1 1 -1 1\n"
                           f"V = 1.0\nB = constant {b}\ngamma = 0\n")
            out = tmp_path / f"c{b}.csv"
            assert cli.main(["concentration", "--config", str(cfg), "--p", "2",
                             "--out", str(out)]) == 0
            rows[b] = _read(out)[2]
        assert rows["1.0"] == rows["-1.0"]
        interior = [float(r[3]) for r in rows["1.0"] if r[2] == "interior"]
        boundary = [float(r[3]) for r in rows["1.0"] if r[2] == "boundary"]
        assert interior == [2.0] * 25
        assert boundary == pytest.approx([1.63843291582] * 16, rel=1e-10)


class TestSolve:
    def test_golden(self, interval_cfg, tmp_path):
        out = tmp_path / "s.json"
        rc = cli.main(["solve", "--config", str(interval_cfg), "--h", "0.1",
                       "--p", "4", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"coarse_exits", "coarse_iterations",
                                "coarse_values", "config", "converged",
                                "el_residual", "free_nodes", "iterations",
                                "lambda", "nodes", "normalized_ratio",
                                "restart_exits", "restart_iterations",
                                "restart_values"}
        cfg = payload["config"]
        assert (cfg["h"], cfg["p"], cfg["seed"]) == (0.1, 4.0, 0)
        assert cfg["geometry.domain"] == "interval"
        assert payload["converged"] is True
        assert payload["free_nodes"] == payload["nodes"] == 101
        assert payload["lambda"] == pytest.approx(min(payload["restart_values"]),
                                                  rel=1e-12)
        # the bump and the five random starts each descend on the 51-node
        # lattice first; four random ones end on a value already polished,
        # and the fine lists count the polished starts only
        assert len(payload["coarse_values"]) == 6
        assert len(payload["coarse_iterations"]) == 6
        assert payload["coarse_exits"].count("merged") == 4
        polished = [e for e in payload["coarse_exits"]
                    if e not in ("merged", "outpaced")]
        assert len(payload["restart_values"]) == len(polished) >= 1
        assert payload["iterations"] == sum(payload["restart_iterations"])


    def test_large_h_keeps_the_potential(self, interval_cfg, tmp_path, capsys):
        # Neumann interval, V = 1, p = 4: the constant field gives sqrt(2) h;
        # at h = 1e30 the potential rounds away against h^2 / spacing and
        # the solve is refused where it read lambda = 0
        out = tmp_path / "s.json"
        argv = ["solve", "--config", str(interval_cfg), "--p", "4",
                "--out", str(out)]
        assert cli.main(argv + ["--h", "10"]) == 0
        assert "lambda=14.142136 " in capsys.readouterr().out
        assert cli.main(argv + ["--h", "1e30"]) == 1
        assert "error: --config/--h: h = 1e+30" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_p_is_finite(self, disk_cfg, tmp_path):
        # p = 1000: the random starts' L^p sums overflow and are rescaled,
        # warning-free, so no start collapses to the zero field and a 0/0
        # lambda
        out = tmp_path / "s.json"
        rc = cli.main(["solve", "--config", str(disk_cfg), "--h", "0.5",
                       "--p", "1e3", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert rc == 0 and payload["converged"] is True
        assert all(math.isfinite(v) for v in payload["restart_values"])
        assert payload["lambda"] == pytest.approx(
            min(payload["restart_values"]), rel=1e-12)
        assert math.isfinite(payload["el_residual"])

    def test_spacing_and_psi_csv(self, interval_cfg, tmp_path):
        out, psi = tmp_path / "s.json", tmp_path / "psi.csv"
        rc = cli.main(["solve", "--config", str(interval_cfg), "--h", "0.1",
                       "--p", "4", "--spacing", "0.05", "--out", str(out),
                       "--psi-csv", str(psi)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["spacing"] == 0.05
        assert payload["nodes"] == 41       # [-1, 1] at spacing 0.05
        config, header, rows = _read(psi)
        assert "# spacing = 0.05" in config
        assert header == ["x", "re", "im", "abs"]
        assert len(rows) == payload["nodes"]
        assert float(rows[0][0]) == -1.0 and float(rows[-1][0]) == 1.0


class TestWaveguide:
    HEADER = ["h", "lambda_reduced", "ratio", "mass_outside", "spacing_s",
              "converged"]

    def test_constant_profile_golden(self, tmp_path):
        out = tmp_path / "wg.csv"
        rc = cli.main(["waveguide", "--profile", "constant:1", "--p", "4",
                       "--h-list", "0.5", "--out", str(out)])
        assert rc == 0
        config, header, rows = _read(out)
        assert config == ["# h_list = 0.5", "# p = 4.0",
                          "# profile = constant:1", "# seed = 0"]
        assert header == self.HEADER
        (row,) = rows
        assert row[-1] == "1"
        # constant height: the rescale onto the reference strip is exact on
        # matched lattices, so the ratio is 1 to rounding
        assert abs(float(row[2]) - 1.0) <= 1e-9

    @staticmethod
    def _target(h, a_max, p=4.0):
        """h^{1-2/p} a_max^{-4/p} lambda^Dir(Sigma, p), the ratio's divisor."""
        return h ** (1.0 - 2.0 / p) * a_max ** (-4.0 / p) * \
            waveguide.straight_reference(p)

    def test_cosine_profile(self, tmp_path):
        # a(s) = 1 + cos(2 pi s / 8) / 4: a_max = 1.25 at s = 0
        out = tmp_path / "wg.csv"
        assert cli.main(["waveguide", "--profile", "cosine", "--p", "4",
                         "--h-list", "0.5", "--out", str(out)]) == 0
        config, header, rows = _read(out)
        assert "# profile = cosine" in config
        assert header == self.HEADER
        (row,) = rows
        assert row[-1] == "1"
        lam, ratio = float(row[1]), float(row[2])
        assert lam / ratio == pytest.approx(self._target(0.5, 1.25), rel=1e-10)
        assert 1.0 < ratio < 1.0 + 0.5      # within the (.., 1 + C h) bracket

    def test_table_profile(self, tmp_path):
        # a tent through (-2, 1), (0, 1.5), (2, 1): a_max = 1.5 at s = 0;
        # the ratio approaches 1 from above as h halves
        table = tmp_path / "tent.csv"
        table.write_text("-2,1\n0,1.5\n2,1\n")
        out = tmp_path / "wg.csv"
        assert cli.main(["waveguide", "--profile", f"table:{table}", "--p",
                         "4", "--h-list", "0.5,0.25", "--out", str(out)]) == 0
        _, _, rows = _read(out)
        assert [r[-1] for r in rows] == ["1", "1"]
        for r in rows:
            h, lam, ratio = float(r[0]), float(r[1]), float(r[2])
            assert lam / ratio == pytest.approx(self._target(h, 1.5),
                                                rel=1e-10)
        gaps = [float(r[2]) - 1.0 for r in rows]
        assert 0.0 < gaps[1] < gaps[0] < 0.1

    def test_unconverged_rung_is_counted(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(waveguide, "straight_reference", lambda p: 1.0)
        real = minimize.minimize_quotient

        def unconverged(form, p, opts, coarse=None, start=None):
            res = real(form, p, opts, coarse, start)
            res.converged = False
            return res

        monkeypatch.setattr(minimize, "minimize_quotient", unconverged)
        out = tmp_path / "wg.csv"
        rc = cli.main(["waveguide", "--profile", "constant:1", "--p", "4",
                       "--h-list", "0.5", "--out", str(out)])
        assert rc == 2      # the row is written, then non-convergence
        assert capsys.readouterr().out.rstrip().endswith(", 1 unconverged")
        (row,) = _read(out)[2]
        assert row[-1] == "0"

    @pytest.mark.usefixtures("fresh_reference")
    @pytest.mark.parametrize("p", ["3", "2.5"])
    def test_backtracking_exponent_converges(self, tmp_path, p):
        # p other than 2 and 4 takes the backtracking line step: the
        # straight reference and the rung both pass the convergence test
        out = tmp_path / "wg.csv"
        assert cli.main(["waveguide", "--profile", "constant:1", "--p", p,
                         "--h-list", "0.5", "--out", str(out)]) == 0
        (row,) = _read(out)[2]
        assert row[-1] == "1"

    @pytest.mark.usefixtures("fresh_reference")
    def test_unconverged_reference_exits_2(self, tmp_path, monkeypatch, capsys):
        # the reference misses; the rungs converge
        real = minimize.minimize_quotient

        def solve(form, p, opts, coarse=None, start=None):
            res = real(form, p, opts, coarse, start)
            res.converged = opts.seed != 3      # the reference's seed
            return res

        monkeypatch.setattr(minimize, "minimize_quotient", solve)
        out = tmp_path / "wg.csv"
        rc = cli.main(["waveguide", "--profile", "constant:1", "--p", "4",
                       "--h-list", "0.5,0.25", "--out", str(out)])
        assert rc == 2      # every row is written, then non-convergence
        std = capsys.readouterr()
        assert std.out.rstrip().endswith(", 2 unconverged")
        assert std.err == ""
        assert [row[-1] for row in _read(out)[2]] == ["0", "0"]
        assert models._unconverged == 1


class TestDirichletFaces:
    """Dirichlet data is a face condition, however it is written:
    `gamma = dirichlet` rewrites the Robin faces, and no Dirichlet face is
    ever a boundary sample."""

    GRID = ["points", "free", "weight", "surface_weight", "edges",
            "edge_coeff", "shape", "spacing"]

    def _concentration(self, text, p, tmp_path, name):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + "V = 1.0\n")
        out = tmp_path / f"{name}.csv"
        assert cli.main(["concentration", "--config", str(cfg), "--p", p,
                         "--out", str(out)]) == 0
        return _read(out)[2]

    @pytest.mark.parametrize("shape, faces, explicit", [
        ("domain = rectangle\nbounds = -1 1 -1 1\n", "",
         "bc = dirichlet dirichlet dirichlet dirichlet\n"),
        ("domain = rectangle\nbounds = -1 1 -1 1\n",
         "bc = robin truncation robin robin\n",
         "bc = dirichlet truncation dirichlet dirichlet\n"),
        ("domain = interval\nbounds = -1 1\n", "bc = robin robin\n",
         "bc = dirichlet dirichlet\n"),
    ], ids=["rectangle", "rectangle-mixed", "interval"])
    def test_two_spellings_agree(self, shape, faces, explicit, tmp_path):
        implicit = shape + faces + "gamma = dirichlet\n"
        grids = [build_grid(parse_geometry(text)[0], 0.1)
                 for text in (implicit, shape + explicit)]
        for name in self.GRID:
            assert np.array_equal(getattr(grids[0], name),
                                  getattr(grids[1], name)), name
        rows = [self._concentration(text, "4", tmp_path, name)
                for name, text in (("implicit", implicit),
                                   ("explicit", shape + explicit))]
        assert rows[0] == rows[1]
        assert {r[2] for r in rows[0]} == {"interior"}

    def test_disk_rim(self, tmp_path):
        # on a disk `gamma = dirichlet` is the only spelling: the center
        # and five rings of 8 remain, and no rim point
        rows = self._concentration("domain = disk\nradius = 1\n"
                                   "gamma = dirichlet\n", "4", tmp_path, "disk")
        assert len(rows) == 41
        assert {r[2] for r in rows} == {"interior"}
        assert max(math.hypot(float(r[0]), float(r[1])) for r in rows) < 0.9

    def test_magnetic_box_at_p_2(self, tmp_path):
        rows = self._concentration("domain = rectangle\nbounds = -1 1 -1 1\n"
                                   "B = constant 1\ngamma = dirichlet\n",
                                   "2", tmp_path, "box")
        assert {(r[2], float(r[3])) for r in rows} == {("interior", 2.0)}


class TestPartitionCheck:
    def test_golden(self, tmp_path):
        out = tmp_path / "pc.json"
        rc = cli.main(["partition-check", "--alpha", "0.5", "--rho", "0.33",
                       "--h", "0.1", "--samples", "5", "--spacing", "0.1",
                       "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"acceptance_fraction", "accepted",
                                "cell_grad_mass_constant", "config",
                                "grad_bound_constant", "ims_identity_defect",
                                "rescaled", "sum_sq_error", "tau"}
        assert payload["config"] == {"alpha": 0.5, "h": 0.1, "p": 4.0,
                                     "rho": 0.33, "samples": 5, "seed": 0,
                                     "spacing": 0.1}
        assert payload["sum_sq_error"] <= 1e-12
        assert len(payload["tau"]) == 2


class TestConfigValidation:
    """A malformed geometry file is a validation error: exit 1, `error:`."""

    @pytest.mark.parametrize("text,message", [
        ("domain = interval\nbounds -1 1\n", "line 2: expected 'key = value'"),
        ("domain = torus\n", "domain: unknown kind 'torus'"),
        ("domain = rectangle\nbounds = -1 1 -1\n", "bounds: expected 4 numbers, got 3"),
        ("domain = interval\nbounds = -1 0 1\n", "bounds: expected 2 numbers, got 3"),
        ("domain = disk\nradus = 3.0\n", "radus: unknown key"),
        ("domain = interval\nbounds = -1 1\nspacing = 0.05\n",
         "spacing: unknown key"),
        ("domain = rectangle\nbounds = -1 1 -1 1\nradius = 3\n",
         "radius: not used by domain = rectangle"),
        ("domain = rectangle\nbounds = -1 1 -1 1\nhalfwidth = 7\n",
         "halfwidth: not used by domain = rectangle"),
        ("domain = disk\nbounds = -1 1 -1 1\n", "bounds: not used by domain = disk"),
        ("domain = plane\nbc = robin robin robin robin\n",
         "bc: not used by domain = plane"),
        ("domain = strip\nbounds = -2 2\nbc = robin robin\n",
         "bc: not used by domain = strip"),
        # a strip reads its s-range only; a second pair is not dropped
        ("domain = strip\nbounds = -2 2 5 7\n", "bounds: expected 2 numbers, got 4"),
        # every number goes through one reader: malformed or non-finite
        # values, and empty or out-of-range shapes, are errors
        ("domain = disk\nB = constant\n", "B: expected 1 numbers, got 0"),
        ("domain = disk\nB = abc\n", "B: unknown preset 'abc'"),
        ("domain = disk\nradius = abc\n", "radius: expected numbers"),
        ("domain = plane\nhalfwidth = x\n", "halfwidth: expected numbers"),
        ("domain = disk\ncenter = 1\n", "center: expected 2 numbers, got 1"),
        ("domain = disk\nB = nan\n", "B: expected finite numbers"),
        ("domain = disk\nV = nan\n", "V: expected finite numbers"),
        ("domain = disk\nV = 1\nB = inf\n", "B: expected finite numbers"),
        ("domain = disk\nV = 1\ngamma = nan\n",
         "gamma: expected finite numbers"),
        ("domain = disk\nV = 1\nradius = 0\n", "radius: expected a number > 0"),
        ("domain = disk\nV = 1\nradius = -1\n",
         "radius: expected a number > 0"),
        ("domain = plane\nV = 1\nhalfwidth = -3\n",
         "halfwidth: expected a number > 0"),
        ("domain = rectangle\nV = 1\nbounds = 1 -1 -1 1\n",
         "bounds: each pair needs lo < hi"),
        # a key is set once, whatever its case
        ("domain = disk\nGamma = 0\nV = 1\ngamma = -1\n",
         "gamma: set on lines 2 and 4"),
        # a field that is finite as written but not on every lattice node
        ("domain = disk\nradius = 2\ngamma = quadratic 0 1e308\n",
         "gamma: value inf at x = ("),
        ("domain = disk\nradius = 2\nV = quadratic 1 1e308\n",
         "V: value inf at x = ("),
        ("domain = disk\nV = cubic 1\n", "V: unknown preset 'cubic'"),
        # a field value is a number or a documented preset
        ("domain = disk\nV = const 1\n", "V: unknown preset 'const'"),
        ("V = 1\n", "domain: key is required"),
        ("domain = rectangle\nV = 1\n", "bounds: required for domain = rectangle"),
        ("domain = interval\nbounds = -1 1\nbc = robin\n", "bc: need 2 of"),
        ("domain = rectangle\nbounds = -1 1 -1 1\nbc = robin robin robin\n",
         "bc: need 4 of"),
        ("domain = interval\nbounds = -1 1\nV = 1\nB = constant 1\n",
         "B: magnetic fields need dimension 2"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "s.json"
        rc = cli.main(["solve", "--config", str(cfg), "--h", "0.1", "--p", "4",
                       "--out", str(out)])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


# refusals by id: the argv and the exact prefix of the message.  One
# raised below the CLI names the flags on its command line behind its
# error's class (`cli.main`); `g.cfg` is a rectangle with gamma = 1000,
# whose half-plane model is spaced at depth / 10 on its normal axis
NAMED_REFUSALS = {
    "sweep-lattice-too-large": (
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", "1e-12"],
        "error: --config/--h-list: spacing"),
    "sweep-h-potential-lost": (
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", "1e30"],
        "error: --config/--h-list: h = 1e+30"),
    "sweep-repulsive-model-too-large": (
        ["sweep", "--config", "{tmp}/g.cfg", "--p", "4", "--h-list", "0.1"],
        "error: --config/--h-list: spacing"),
    "large-domain-lattice-too-large": (
        ["large-domain", "--config", "{tmp}/disk.cfg", "--p", "4",
         "--R-list", "1e5"],
        "error: --config/--R-list: spacing"),
    "large-domain-h-potential-lost": (
        ["large-domain", "--config", "{tmp}/disk.cfg", "--p", "4",
         "--R-list", "1e-15"],
        "error: --config/--R-list: h = 1e+30"),
    "concentration-repulsive-model-too-large": (
        ["concentration", "--config", "{tmp}/g.cfg", "--p", "4"],
        "error: --config: spacing"),
    "model1d-c-one": (["model1d", "--p", "4", "--c", "1"],
                      "error: --c: lambda_c undefined"),
    "model1d-sweep-to-minus-one": (["model1d", "--p", "4", "--sweep=-1:0:3"],
                                   "error: --sweep: lambda_c undefined"),
    "model1d-mass-underflows": (["model1d", "--p", "2.01", "--c", "-0.99"],
                                "error: --p/--c: c=-0.99"),
    # a sample or a point costs memory like a lattice node: each count is
    # refused past the node budget before anything is built
    "concentration-n-interior-past-budget": (
        ["concentration", "--config", "{cfg}", "--p", "4",
         "--n-interior", "100000000"],
        "error: --n-interior: expected 1 to 4194304, got 100000000"),
    "concentration-n-boundary-past-budget": (
        ["concentration", "--config", "{cfg}", "--p", "4",
         "--n-boundary", "100000000"],
        "error: --n-boundary: expected 1 to 4194304, got 100000000"),
    "partition-samples-past-budget": (
        ["partition-check", "--alpha", "0.5", "--rho", "0.33", "--h", "0.1",
         "--samples", "100000000"],
        "error: --samples: expected 1 to 4194304, got 100000000"),
    "model1d-sweep-past-budget": (
        ["model1d", "--p", "4", "--sweep=0:0.5:100000000"],
        "error: --sweep: expected 1 to 4194304, got 100000000"),
}


class TestBadInput:
    """Bad argument values exit 1 with a message that names the flag or
    config key at fault, never a traceback."""

    @pytest.fixture
    def refuse(self, interval_cfg, tmp_path, capsys):
        """Run an argv, with {tmp} and {cfg} filled in, on the test's
        files; check that it is refused: exit 1, an `error:` message and
        no traceback or output file.  Returns the argv and stderr."""
        (tmp_path / "one_column.csv").write_text("0\n1\n2\n")
        (tmp_path / "disk.cfg").write_text("domain = disk\nradius = 1.0\nV = 1.0\n")
        (tmp_path / "g.cfg").write_text("domain = rectangle\nbounds = -1 1 -1 1\n"
                                        "V = 1.0\ngamma = 1000\n")
        for name, text in (("descending", "2,1.0\n0,1.5\n-2,1.0\n"),
                           ("repeated", "-2,1.0\n0,1.5\n0,1.2\n2,1.0\n"),
                           ("nan", "-2,1.0\n0,nan\n2,1.0\n"),
                           ("one_row", "0,1.5\n")):
            (tmp_path / f"{name}.csv").write_text(text)
        out = tmp_path / "out.csv"

        def run(argv):
            argv = [a.replace("{tmp}", str(tmp_path))
                    .replace("{cfg}", str(interval_cfg)) for a in argv]
            rc = cli.main(argv + ["--out", str(out)])
            err = capsys.readouterr().err
            assert rc == 1
            assert "error:" in err and "Traceback" not in err
            assert not out.exists()
            return argv, err
        return run

    @pytest.mark.parametrize("argv", [
        ["model1d", "--p", "2", "--c", "0"],
        ["waveguide", "--profile", "gaussian:1,2", "--p", "4", "--h-list", "0.5"],
        ["waveguide", "--profile", "constant:abc", "--p", "4", "--h-list", "0.5"],
        ["waveguide", "--profile", "table:{tmp}/missing.csv", "--p", "4",
         "--h-list", "0.5"],
        ["waveguide", "--profile", "table:{tmp}/one_column.csv", "--p", "4",
         "--h-list", "0.5"],
        ["waveguide", "--profile", "constant:1", "--p", "1.5", "--h-list", "0.5"],
        ["solve", "--config", "{cfg}", "--h", "0", "--p", "4"],
        ["solve", "--config", "{cfg}", "--h", "-0.1", "--p", "4"],
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", "0"],
        ["large-domain", "--config", "{cfg}", "--p", "4", "--R-list", "0"],
        ["large-domain", "--config", "{cfg}", "--p", "3", "--R-list", "-2"],
        ["waveguide", "--profile", "constant:1", "--p", "4", "--h-list", "0"],
        ["partition-check", "--alpha", "0.5", "--rho", "0.33", "--h", "0"],
        ["partition-check", "--alpha", "0.5", "--rho", "0.33", "--h", "0.1",
         "--spacing", "0"],
        ["partition-check", "--alpha", "0.5", "--rho", "0.33", "--h", "0.1",
         "--samples", "0"],
        ["model1d", "--p", "4", "--sweep=0:0.5:0"],
        ["model1d", "--p", "4", "--c=nan"],
        ["model1d", "--p", "4", "--sweep=nan:0.5:3"],
        ["model1d", "--p", "inf", "--c", "0.1"],
        ["model1d", "--p", "nan", "--c", "0.1"],
        ["solve", "--config", "{cfg}", "--h", "0.1", "--p", "inf"],
        ["solve", "--config", "{cfg}", "--h", "0.1", "--p", "nan"],
        ["solve", "--config", "{cfg}", "--h", "0.1", "--p", "4",
         "--grad-tol", "nan"],
        ["solve", "--config", "{cfg}", "--h", "0.1", "--p", "4",
         "--grad-tol", "-1"],
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", "0.1",
         "--format", "json"],
        ["waveguide", "--profile", "constant:1", "--p", "4", "--h-list", "0.5",
         "--format", "json"],
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", ""],
        ["large-domain", "--config", "{cfg}", "--p", "4", "--R-list", ""],
        ["concentration", "--config", "{cfg}", "--p", "4", "--n-interior", "-3"],
        ["concentration", "--config", "{cfg}", "--p", "4", "--n-boundary", "0"],
        ["partition-check", "--alpha", "0.5", "--rho", "0.4", "--h", "0.5",
         "--spacing", "1e-4"],
        ["waveguide", "--profile", "gaussian:-0.5,0,1", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "table:{tmp}/descending.csv", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "table:{tmp}/repeated.csv", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "table:{tmp}/nan.csv", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "table:{tmp}/one_row.csv", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "constant:nan", "--p", "4", "--h-list", "0.2"],
        ["waveguide", "--profile", "gaussian:nan,0,1", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "gaussian:0.5,inf,1", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "gaussian:0.5,0,0", "--p", "4",
         "--h-list", "0.2"],
        ["waveguide", "--profile", "gaussian:0.5,0,-1", "--p", "4",
         "--h-list", "0.2"],
        ["partition-check", "--alpha", "inf", "--rho", "1", "--h", "0.5"],
        ["partition-check", "--alpha", "1e308", "--rho", "1e308", "--h", "0.5"],
        ["solve", "--config", "{cfg}", "--h", "1e300", "--p", "4"],
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", "1e200"],
        ["large-domain", "--config", "{cfg}", "--p", "4", "--R-list", "1e300"],
        ["solve", "--config", "{cfg}", "--h", "1e30", "--p", "4"],
        ["solve", "--config", "{cfg}", "--h", "1e150", "--p", "4"],
        ["sweep", "--config", "{cfg}", "--p", "4", "--h-list", "0.1,abc"],
        ["waveguide", "--profile", "spiral", "--p", "4", "--h-list", "0.5"],
        ["model1d", "--p", "4", "--sweep=0:1"],
        ["model1d", "--p", "4"],
        ["solve", "--config", "{tmp}/missing.cfg", "--h", "0.1", "--p", "4"],
        ["solve", "--config", "{cfg}", "--h", "0.1", "--p", "4",
         "--spacing", "1e-7"],
        ["solve", "--config", "{cfg}", "--h", "1e-16", "--p", "4"],
        ["waveguide", "--profile", "cosine:5", "--p", "4", "--h-list", "0.5"],
        ["solve", "--config", "{cfg}", "--h", "0.1", "--p", "4",
         "--spacing", "1.0"],
        ["solve", "--config", "{tmp}/disk.cfg", "--h", "0.1", "--p", "4",
         "--spacing", "0.5"],
        ["partition-check", "--alpha", "0.5", "--rho", "0.3", "--h", "0.1",
         "--spacing", "2.0"],
        ["waveguide", "--profile", "constant:1", "--p", "4", "--h-list", "100"],
        ["waveguide", "--profile", "gaussian:0.5,0,1e-3", "--p", "4",
         "--h-list", "0.1"],
        *(argv for argv, _ in NAMED_REFUSALS.values()),
    ], ids=["model1d-p2", "gaussian-fields", "constant-value", "table-missing",
            "table-columns", "waveguide-p", "solve-h-zero", "solve-h-negative",
            "sweep-h-zero", "large-domain-R-zero", "large-domain-R-negative",
            "waveguide-h-zero", "partition-h-zero", "partition-spacing-zero",
            "partition-no-samples", "model1d-empty-sweep", "model1d-c-nan",
            "model1d-sweep-nan", "model1d-p-inf", "model1d-p-nan",
            "solve-p-inf", "solve-p-nan", "solve-grad-tol-nan",
            "solve-grad-tol-negative", "sweep-format", "waveguide-format",
            "sweep-h-empty", "large-domain-R-empty",
            "concentration-n-interior-negative",
            "concentration-n-boundary-zero", "partition-lattice-too-large",
            "gaussian-dip", "table-descending", "table-repeated-s",
            "table-nan", "table-one-row", "constant-nan", "gaussian-amp-nan",
            "gaussian-center-inf", "gaussian-width-zero",
            "gaussian-width-negative", "partition-alpha-inf",
            "partition-layer-underflow", "solve-h-overflow",
            "sweep-h-overflow", "large-domain-h-underflow",
            "solve-h-potential-lost", "solve-h-potential-lost-1e150",
            "sweep-h-not-a-number", "profile-kind", "model1d-sweep-two-fields",
            "model1d-no-c-or-sweep", "config-missing",
            "solve-lattice-too-large", "solve-h-lattice-too-large",
            "cosine-parameters", "solve-lattice-too-small",
            "solve-disk-under-resolved", "partition-lattice-too-small",
            "waveguide-rung-too-small", "waveguide-profile-too-narrow",
            *NAMED_REFUSALS])
    def test_exits_1(self, argv, refuse):
        argv, err = refuse(argv)
        if "--format" not in argv:  # argparse names an unknown flag itself
            # "error: <name>: ", each /-separated part of <name> given on
            # the command line: a flag, with or without its "--", or the
            # subcommand
            named = re.search(r"^error: (\S+): ", err, re.MULTILINE)
            given = {a.split("=")[0] for a in argv}
            assert named, err
            assert all(n in given or f"--{n}" in given
                       for n in named[1].split("/")), err

    @pytest.mark.parametrize("argv,prefix", NAMED_REFUSALS.values(),
                             ids=list(NAMED_REFUSALS))
    def test_names_the_flags_behind_the_refusal(self, argv, prefix, refuse):
        assert refuse(argv)[1].startswith(prefix)

    @pytest.mark.parametrize("argv,prefix", [
        (["sweep", "--conf", "{cfg}", "--p", "4", "--h-l", "1e-12"],
         "error: the following arguments are required: --config, --h-list"),
        (["model1d", "--p", "4", "--sw=-1:0:3"],
         "error: unrecognized arguments: --sw=-1:0:3"),
    ], ids=["sweep-prefixes", "model1d-sweep-prefix"])
    def test_refuses_a_flag_prefix(self, argv, prefix, refuse):
        # argparse would take a unique prefix and pass the refusal on to a
        # solver that names no flag; the prefix itself is refused
        err = refuse(argv)[1]
        assert err.splitlines()[-1].startswith(prefix), err


class TestAtomicWrite:
    def test_replaces_the_content(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        atomic_write(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()          # a file cannot be renamed onto a directory
        with pytest.raises(OSError):
            atomic_write(str(target), "text\n")
        assert target.is_dir() and not any(target.iterdir())
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
