import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormlab import cli, reporting
from renormlab.cli import main

from oracles import write_csv_by_fmt

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


@pytest.mark.parametrize("c, n, csv_sha256, results", [
    ("1.5", 50,
     "8e28b7685eea8c9c8d2a8cc1ec85374fac1e0e99e059df63523e99aa8d98d109",
     {"c": 1.5, "n": 50, "min": -0.5, "max": 1.0, "clamp_excess": 0.0}),
    ("2.0", 300,
     "21394064d54aba01b6db555d0b27334788e5d8c91bb5c5acceefeffeae374435",
     {"c": 2.0, "n": 300, "min": -1.0, "max": 1.0, "clamp_excess": 0.0}),
    ("1.4011551890920328", 1024,
     "205b9d26304498676bd895f35dcc5e233be072053c14907ee80db2399939a1a8",
     {"c": 1.4011551890920328, "n": 1024, "min": -0.40115518909203285,
      "max": 1.0, "clamp_excess": 0.0}),
], ids=["1.5-50", "2.0-300", "c_inf-1024"])
def test_orbit_outputs_are_pinned(tmp_path, c, n, csv_sha256, results):
    """orbit.csv's bytes and orbit.json's results, pinned; they are also
    what an orbit clamped to [-1, 1] gives, since no clamp fires for c in
    (0, 2]."""
    assert run(tmp_path, "orbit", "--c", c, "--n", str(n)) == 0
    got = hashlib.sha256((tmp_path / "orbit.csv").read_bytes()).hexdigest()
    assert got == csv_sha256
    assert load_report(tmp_path, "orbit")["results"] == results


@pytest.mark.parametrize("argv, name, csv_sha256", [
    (["tower", "--fixed-point"], "tower.csv",
     "71dd66a96fa5c48ded3e8f6479fc52dcfdc12a6f3ddcfedc9031ba9f36313e18"),
    (["feigenbaum"], "feigenbaum_map.csv",
     "305ddd3e8142ed170d910bc85051488b8a60b74d738073f73cd85b216f211faf"),
], ids=["tower", "feigenbaum"])
def test_fixed_point_csvs_are_pinned(tmp_path, argv, name, csv_sha256):
    """The CSVs of `tower --fixed-point` and `feigenbaum` at the default
    configuration, pinned byte for byte: their rows are formatted from
    Python floats, which must print as the numpy floats they hold."""
    assert run(tmp_path, *argv) == 0
    got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == csv_sha256


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


def test_cascade_past_its_cap_reports_a_domain_error(tmp_path, capsys):
    assert run(tmp_path, "cascade", "--n", "15") == 2
    rep = load_report(tmp_path, "cascade")
    assert rep["status"] == "DomainError"
    assert "4..14" in rep["diagnostics"][0]
    assert "DomainError" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


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
    ("cascade", "--n", "3"),
], ids=["sums-m-max", "orbit-n", "converge-n", "tower-depth",
        "geometry-depth", "cascade-n"])
def test_integer_arguments_outside_their_domain_are_usage_errors(
        tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sums_with_bad_gamma_writes_the_report_and_no_csv(tmp_path, capsys):
    assert run(tmp_path, "sums", "--c", "1.401155189", "--gamma", "0") == 2
    rep = load_report(tmp_path, "sums")
    assert rep["status"] == "OperatorDomainError"
    assert "OperatorDomainError" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_reports_are_strict_json(tmp_path):
    """One operator power leaves norm_ratio undefined: the report writes it
    as null, since RFC 8259 JSON has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    assert run(tmp_path, "sums", "--fixed-point", "--m-max", "1") == 0
    text = (tmp_path / "sums.json").read_text()
    rep = json.loads(text, parse_constant=refuse)
    assert rep["results"]["norm_ratio"] is None
    assert len(rep["results"]["norms"]) == 1


def test_numpy_bools_are_written_as_json_booleans(tmp_path):
    path = reporting.write_json(tmp_path / "bools.json",
                                {"yes": np.bool_(True), "no": np.bool_(False),
                                 "rows": np.array([1.0, 2.0]) > 1.5})
    assert json.loads(path.read_text()) == {"yes": True, "no": False,
                                            "rows": [False, True]}


def _chain_fmt(x):
    """reporting.fmt as it was before its exact-type fast path: the
    isinstance chain alone."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


@pytest.mark.parametrize("value", [
    0.1, -2.5e-300, 4.6692016091029907, np.float64(0.1), np.float64(-7.0),
    0, 7, -(2**70), float("nan"), float("inf"), float("-inf"), -0.0,
    np.float64(-0.0), np.float64("nan"), 5e-324, True, False, np.bool_(True),
    np.int64(-3), np.float32(0.1), np.float32("inf"), np.longdouble(0.1),
    "text"])
def test_fmt_is_the_isinstance_chain(value):
    assert reporting.fmt(value) == _chain_fmt(value)


_edge_floats = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                -0.0, 5e-324, 0.1])
_row_floats = st.one_of(st.floats(), _edge_floats)
# the types write_csv prints with one format per row, and the types fmt
# prints alone
_fast = st.one_of(_row_floats, _row_floats.map(np.float64), st.integers())
_other = st.one_of(
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans(),
    st.booleans().map(np.bool_), st.text(max_size=4))


@given(rows=st.lists(st.one_of(st.lists(_fast, max_size=6),
                               st.lists(st.one_of(_fast, _other),
                                        max_size=6)).map(tuple),
                     max_size=8))
@settings(max_examples=300, deadline=None)
def test_write_csv_is_one_fmt_call_per_value(rows):
    """write_csv's bytes, rows of exact float, np.float64 and int types
    printed by one format per row and the rest by fmt, against fmt on
    every value: nan, infinities and -0.0 included."""
    with tempfile.TemporaryDirectory() as tmp:
        got = reporting.write_csv(Path(tmp, "got.csv"), ["a", "b"], rows)
        want = write_csv_by_fmt(Path(tmp, "want.csv"), ["a", "b"], rows)
        assert got.read_bytes() == want.read_bytes()


def test_the_shared_parser_keeps_no_state_between_runs(tmp_path):
    """main() reuses one parser per process; a run after a --depth run
    writes the bytes a freshly built parser gives for the same arguments."""
    assert cli.build_parser() is cli.build_parser()
    assert run(tmp_path, "tower", "--fixed-point", "--depth", "3") == 0
    assert run(tmp_path, "tower", "--fixed-point") == 0
    shared = [(tmp_path / name).read_bytes()
              for name in ("tower.json", "tower.csv")]
    cli.build_parser.cache_clear()
    assert run(tmp_path, "tower", "--fixed-point") == 0
    fresh = [(tmp_path / name).read_bytes()
             for name in ("tower.json", "tower.csv")]
    assert shared == fresh
    assert json.loads(shared[0])["results"]["depth"] == 8


def test_depth_is_recorded_in_the_config(tmp_path):
    """--depth sets tower_depth, so the report's config reproduces the
    run."""
    assert run(tmp_path, "tower", "--c", "1.401155189", "--depth", "3") == 0
    rep = load_report(tmp_path, "tower")
    assert rep["config"]["tower_depth"] == 3
    assert rep["results"]["depth"] == 3
