import json

import numpy as np
import pytest

from renormlab import cli
from renormlab.cli import main

REPORT_KEYS = {"command", "version", "config", "status", "results",
               "diagnostics"}


def run(tmp_path, *argv):
    return main([*argv, "--output-dir", str(tmp_path)])


def load_report(tmp_path, command):
    with open(tmp_path / f"{command}.json") as fh:
        return json.load(fh)


def test_feigenbaum_report(tmp_path):
    assert run(tmp_path, "feigenbaum", "--degree", "16") == 0
    rep = load_report(tmp_path, "feigenbaum")
    assert set(rep) == REPORT_KEYS
    assert rep["status"] == "ok"
    assert rep["config"]["degree"] == 16
    assert abs(rep["results"]["lambda_star"] + 0.399535280523) < 1e-8
    assert rep["results"]["residual"] < 1e-9
    lines = (tmp_path / "feigenbaum_map.csv").read_text().splitlines()
    assert lines[0] == "x,g_x"
    assert len(lines) > 100


def test_spectrum_report(tmp_path):
    assert run(tmp_path, "spectrum", "--degree", "16") == 0
    rep = load_report(tmp_path, "spectrum")
    assert abs(rep["results"]["delta"] - 4.6692016091) < 1e-6
    assert rep["results"]["hyperbolic"] is True
    lines = (tmp_path / "spectrum_eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,real,imag,modulus"
    assert len(lines) == 18


def test_orbit_roundtrip(tmp_path):
    assert run(tmp_path, "orbit", "--c", "1.5", "--n", "50") == 0
    rows = (tmp_path / "orbit.csv").read_text().splitlines()
    assert rows[0] == "i,x_i"
    assert len(rows) == 52
    xs = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.max(np.abs(xs)) <= 1.0 + 1e-12


def test_cascade_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(a, "cascade", "--n", "8") == 0
    assert run(b, "cascade", "--n", "8") == 0
    assert (a / "cascade.csv").read_bytes() == (b / "cascade.csv").read_bytes()
    ra, rb = load_report(a, "cascade"), load_report(b, "cascade")
    ra["config"].pop("output_dir")
    rb["config"].pop("output_dir")
    assert ra == rb


def test_windows_listing(tmp_path):
    assert run(tmp_path, "windows", "--p", "3", "--lo", "1.6",
               "--hi", "1.9", "--grid", "200") == 0
    rows = (tmp_path / "windows.csv").read_text().splitlines()
    assert rows[0].startswith("p,")
    assert len(rows) == 2
    assert rows[1].startswith("3,")


def test_windows_reports_a_raised_grid(tmp_path):
    assert run(tmp_path, "windows", "--p", "3", "--lo", "1.6",
               "--hi", "1.9", "--grid", "50") == 0
    rep = load_report(tmp_path, "windows")
    assert rep["config"]["grid"] == 50
    assert rep["diagnostics"] == [
        "grid 50 raised to 100, the fewest points find_windows scans"]
    assert run(tmp_path, "windows", "--p", "3", "--lo", "1.6",
               "--hi", "1.9") == 0
    assert load_report(tmp_path, "windows")["diagnostics"] == []


@pytest.mark.parametrize("p", ["1", "0", "-3"])
def test_windows_below_period_two_exits_two(tmp_path, capsys, p):
    assert run(tmp_path, "windows", "--p", p, "--lo", "1.6",
               "--hi", "1.9") == 2
    assert load_report(tmp_path, "windows")["status"] == "DomainError"
    assert "periods start at 2" in capsys.readouterr().err


def test_dimension_pipeline(tmp_path):
    assert run(tmp_path, "dimension", "--c", "1.401155189", "--depth",
               "8", "--degree", "16") == 0
    rep = load_report(tmp_path, "dimension")
    assert 0.4 < rep["results"]["s_estimate"] < 0.7


def test_config_file_merge(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("degree = 16\nseed = 9\n# comment\ntol = 1e-9\n")
    assert run(tmp_path, "feigenbaum", "--config", str(conf),
               "--tol", "1e-10") == 0
    cfg = load_report(tmp_path, "feigenbaum")["config"]
    assert cfg["degree"] == 16
    assert cfg["seed"] == 9
    assert cfg["tol"] == 1e-10


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("degre = 16\n")
    assert run(tmp_path, "feigenbaum", "--config", str(conf)) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_config_value_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("degree = sixteen\n")
    assert run(tmp_path, "feigenbaum", "--config", str(conf)) == 1
    assert "bad value for degree" in capsys.readouterr().err


def test_bad_flag_value_is_a_usage_error(tmp_path, capsys):
    assert run(tmp_path, "feigenbaum", "--degree", "5") == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(tmp_path, capsys):
    assert run(tmp_path, "orbit") == 1


def test_module_failure_reports_and_exits_two(tmp_path, capsys):
    code = run(tmp_path, "dimension", "--c", "1.401155189", "--depth", "2",
               "--degree", "16")
    assert code == 2
    rep = load_report(tmp_path, "dimension")
    assert rep["status"] == "EmptyLevel"
    assert rep["diagnostics"]
    assert "EmptyLevel" in capsys.readouterr().err


def test_parameter_outside_family_domain_exits_two(tmp_path):
    code = run(tmp_path, "orbit", "--c", "2.5")
    assert code == 2
    rep = load_report(tmp_path, "orbit")
    assert rep["status"] == "DomainError"


def test_chaotic_parameter_yields_empty_tower_note(tmp_path):
    # outside every renormalization window the tower truncates at the root
    assert run(tmp_path, "tower", "--c", "1.9", "--degree", "16") == 0
    rep = load_report(tmp_path, "tower")
    assert rep["results"]["depth"] == 0
    assert rep["results"]["truncated_at"] == 1


def test_sums_fixed_point_solves_once(tmp_path, monkeypatch):
    calls = []
    solve = cli.solve_fixed_point

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_fixed_point", counting)
    assert run(tmp_path, "sums", "--fixed-point", "--degree", "16",
               "--depth", "4", "--m-max", "2") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("sums", "--c", "1.401155189", "--m-max", "-1"),
    ("orbit", "--c", "1.3", "--n", "-1"),
    ("converge", "--c", "1.401155189", "--n", "0"),
    ("tower", "--c", "1.401155189", "--depth", "0"),
    ("geometry", "--c", "1.401155189", "--depth", "-2"),
], ids=["sums-m-max", "orbit-n", "converge-n", "tower-depth",
        "geometry-depth"])
def test_integer_arguments_outside_their_domain_are_usage_errors(
        tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
