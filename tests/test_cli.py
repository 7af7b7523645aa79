"""Command-line golden tests on tiny inputs: exit codes, headers, schemas."""

import math

import pytest

from semisobolev import asymptotics, cli


def _read(path):
    lines = path.read_text().splitlines()
    config = [ln for ln in lines if ln.startswith("# ")]
    table = [ln.split(",") for ln in lines if not ln.startswith("#")]
    return config, table[0], table[1:]


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

    def test_unconverged_rung_is_flagged(self, interval_cfg, tmp_path,
                                         monkeypatch):
        real = asymptotics.minimize_quotient

        def unconverged(form, p, opts):
            res = real(form, p, opts)
            res.converged = False
            return res

        monkeypatch.setattr(asymptotics, "minimize_quotient", unconverged)
        out = tmp_path / "ld.csv"
        rc = cli.main(["large-domain", "--config", str(interval_cfg),
                       "--p", "4", "--R-list", "2", "--out", str(out)])
        assert rc == 0      # the exit-code policy of large-domain is unchanged
        _, header, rows = _read(out)
        assert header == self.HEADER
        assert rows[0][-1] == "0"
