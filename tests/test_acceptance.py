"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single [ACCEPT] line, collected and shown in a
terminal-summary section so a plain pytest run ends with the thirteen
per-criterion verdicts. Criterion 9 is asserted at its stated tolerance
and is expected to fail; the README explains the measured ceiling.
"""
import json
import time

import numpy as np
import pytest

from renormlab import families as F
from renormlab import geometry as G
from renormlab import loperator as lop
from renormlab.basis import collocation_nodes, eval_phi, fit_phi
from renormlab.cli import main
from renormlab.renorm import THETA_DOUBLING, THETA_TRIPLING, tower
from renormlab.solver import (convergence_experiment, derivative_matrix,
                              solve_periodic_orbit, spectrum)
from conftest import (C_INF, affine_operator, cold_doubling,
                      finite_difference_matrix, record_accept)
from oracles import apply, middle_thirds_tower

DELTA_3DP = 4.669


def report(n, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"[ACCEPT] criterion {n}: {verdict} - {detail}"
    record_accept(line)
    print(line, flush=True)


def test_criterion_01_fixed_point_solve(tmp_path, fixed_point_32):
    t0 = time.perf_counter()
    code = main(["feigenbaum", "--degree", "24",
                 "--output-dir", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    rep = json.loads((tmp_path / "feigenbaum.json").read_text())
    residual = rep["results"]["residual"]
    # the default route at degree 32 against Newton run at degree 32 only
    cold_lam = cold_doubling(32)[1][0].step.lam
    cold_gap = abs(fixed_point_32.lambda_star - cold_lam)
    ok = (code == 0 and residual < 1e-10 and elapsed < 5.0
          and cold_gap < 1e-9)
    report(1, ok, f"residual={residual:.2e} time={elapsed:.2f}s "
                  f"degree-32 cold-route gap={cold_gap:.2e}")
    assert code == 0
    assert residual < 1e-10
    assert elapsed < 5.0
    assert cold_gap < 1e-9


def test_criterion_02_delta_two_routes(fixed_point_24, quadratic):
    t0 = time.perf_counter()
    rep = spectrum(fixed_point_24.map)
    casc = F.cascade(quadratic, 10)
    elapsed = time.perf_counter() - t0
    route_gap = abs(rep.delta - casc.delta_estimate)
    ok = (abs(rep.delta - DELTA_3DP) < 5e-4 and route_gap < 1e-3
          and elapsed < 10.0)
    report(2, ok, f"delta={rep.delta:.7f} cascade={casc.delta_estimate:.7f} "
                  f"gap={route_gap:.2e} time={elapsed:.1f}s")
    assert abs(rep.delta - DELTA_3DP) < 5e-4
    assert route_gap < 1e-3
    assert elapsed < 10.0


def test_criterion_03_single_unstable_direction(fixed_point_16,
                                                fixed_point_32):
    reps = [spectrum(fp.map) for fp in (fixed_point_16, fixed_point_32)]
    counts = [int(np.sum(np.abs(r.eigenvalues) > 1.0)) for r in reps]
    seconds = [float(np.abs(r.eigenvalues)[1]) for r in reps]
    ok = counts == [1, 1] and all(s < 1.0 - 1e-3 for s in seconds)
    report(3, ok, f"unstable counts 16/32={counts} "
                  f"second moduli={seconds[0]:.4f},{seconds[1]:.4f}")
    assert counts == [1, 1]
    assert all(s < 1.0 - 1e-3 for s in seconds)


def _fd_agreement(f):
    A = derivative_matrix(f)
    scale = np.max(np.abs(A))
    mask = np.abs(A) > 1e-8
    F1 = finite_difference_matrix(f, h=1e-6)
    F2 = finite_difference_matrix(f, h=5e-7)
    err = np.max(np.abs(A - F1)[mask]) / scale
    coarse, fine = np.abs(A - F1), np.abs(A - F2)
    sig = coarse > 1e-9 * scale
    ratio = float(np.median(coarse[sig] / np.maximum(fine[sig], 1e-300)))
    return err, ratio


def test_criterion_04_derivative_vs_finite_differences(fixed_point_24,
                                                       tripling_fixed_point,
                                                       quadratic):
    t0 = time.perf_counter()
    cases = {"g": fixed_point_24.map,
             "f_1.3": quadratic.member(1.3, degree=24),
             "period3": tripling_fixed_point.map}
    errs, ratios = {}, {}
    for name, f in cases.items():
        errs[name], ratios[name] = _fd_agreement(f)
    elapsed = time.perf_counter() - t0
    ok = (all(e < 1e-6 for e in errs.values()) and elapsed < 30.0
          and all(3.4 < r < 4.6 for r in ratios.values()))
    detail = " ".join(f"{k}={v:.1e}" for k, v in errs.items())
    report(4, ok, f"rel errors {detail} h2-ratios "
                  + ",".join(f"{r:.2f}" for r in ratios.values())
                  + f" time={elapsed:.1f}s")
    for name in cases:
        assert errs[name] < 1e-6, name
        assert 3.4 < ratios[name] < 4.6, name
    assert elapsed < 30.0


def test_criterion_05_tower_self_similarity(tower_8, fixed_point_24):
    lam = abs(fixed_point_24.lambda_star)
    devs = []
    for k in range(1, 7):
        width = float(tower_8.lengths(k)[0])
        devs.append(abs(width / (2.0 * lam**k) - 1.0))
    worst = max(devs)
    ok = worst < 1e-6
    report(5, ok, f"max |width/(2 lambda^k) - 1| = {worst:.2e} for k<=6")
    assert worst < 1e-6


def test_criterion_06_bounded_geometry(tower_8):
    rep = G.bounded_geometry(tower_8)
    ok = rep.tau >= 0.05 and rep.all_interior()
    report(6, ok, f"tau={rep.tau:.4f} interior={rep.all_interior()} "
                  f"levels={rep.levels_checked}")
    assert rep.tau >= 0.05
    assert rep.all_interior()


def test_criterion_07_sum_decay_regimes(tower_8):
    t0 = time.perf_counter()
    cubic = G.spectral_sum(tower_8, 3.0)
    ratios = cubic.sums[1:] / cubic.sums[:-1]
    slow = G.spectral_sum(tower_8, 1.9)
    elapsed = time.perf_counter() - t0
    ok = (cubic.mu < 1.0 and np.all(ratios[1:] < 1.0)
          and slow.mu < 4.6692016091 and elapsed < 5.0)
    report(7, ok, f"mu(3)={cubic.mu:.4f} mu(1.9)={slow.mu:.4f} "
                  f"time={elapsed:.2f}s")
    assert cubic.mu < 1.0
    assert np.all(ratios[1:] < 1.0)
    assert slow.mu < 4.6692016091
    assert elapsed < 5.0


def test_criterion_08_dimension_estimates(tower_9):
    mt = G.hausdorff_dimension(middle_thirds_tower(10))
    target = np.log(2.0) / np.log(3.0)
    fp_dim = G.hausdorff_dimension(tower_9)
    ok = (abs(mt.s_estimate - target) < 1e-3
          and 0.4 < fp_dim.s_estimate < 0.7 and fp_dim.stability < 0.02)
    report(8, ok, f"cantor={mt.s_estimate:.5f} (err {abs(mt.s_estimate - target):.1e}) "
                  f"fixed-point dim={fp_dim.s_estimate:.4f} "
                  f"stability={fp_dim.stability:.4f}")
    assert abs(mt.s_estimate - target) < 1e-3
    assert 0.4 < fp_dim.s_estimate < 0.7
    assert fp_dim.stability < 0.02


@pytest.mark.xfail(reason="measured r_squared 0.982 < 0.99: the distance "
                          "sequence carries a two-mode beat, see README",
                   strict=True)
def test_criterion_09_convergence_rate(fixed_point_24, quadratic):
    rep = convergence_experiment(quadratic.member(C_INF),
                                 fixed_point_24.map, 8)
    ok = rep.slope < 0.0 and rep.r_squared > 0.99
    report(9, ok, f"slope={rep.slope:.4f} r_squared={rep.r_squared:.6f} "
                  f"(needs > 0.99)")
    assert rep.slope < 0.0
    assert rep.r_squared > 0.99


def test_criterion_10_two_cycle(two_cycle):
    # the period-1 cycle against Newton run at degree 24 only
    orbit = solve_periodic_orbit([THETA_DOUBLING], degree=24)
    cold = cold_doubling(24)[0][0]
    xs = np.linspace(-1.0, 1.0, 200)
    m1_gap = float(np.max(np.abs(orbit.cycle[0](xs) - cold(xs))))
    combi_ok = two_cycle.combinatorics == (THETA_DOUBLING, THETA_TRIPLING)
    ok = two_cycle.residual < 1e-8 and combi_ok and m1_gap < 1e-9
    report(10, ok, f"cycle residual={two_cycle.residual:.2e} "
                   f"combinatorics={combi_ok} m=1 gap={m1_gap:.2e}")
    assert two_cycle.residual < 1e-8
    assert combi_ok
    assert m1_gap < 1e-9


def test_criterion_11_loperator_algebra(fixed_point_24):
    rng = np.random.default_rng(42)
    xs = np.linspace(-1.0, 1.0, 101)
    v = lambda x: np.cos(2.0 * x) + 0.3 * x
    worst = 0.0
    for _ in range(100):
        ops = []
        for _ in range(2):
            w1, w2 = rng.uniform(-2, 2, size=2)
            a1, a2 = rng.uniform(-0.45, 0.45, size=2)
            b1, b2 = rng.uniform(-0.5, 0.5, size=2)
            ops.append(affine_operator([(w1, a1, b1), (w2, a2, b2)]))
        L1, L2 = ops
        both = apply(lop.compose(L1, L2), v, xs)
        seq = apply(L1, lambda x: apply(L2, v, np.atleast_1d(x)), xs)
        worst = max(worst, float(np.max(np.abs(both - seq))))

    g = fixed_point_24.map
    A = derivative_matrix(g)
    L = lop.renorm_derivative_as_loperator(g)
    u_nodes = collocation_nodes(2 * (g.degree + 1))
    col_err = 0.0
    for j in range(g.degree + 1):
        c = np.zeros(g.degree + 1)
        c[j] = 1.0
        w = lambda x: eval_phi(c, np.asarray(x) ** 2)
        fitted, _ = fit_phi(apply(L, w, np.sqrt(u_nodes)), g.degree)
        col_err = max(col_err, float(np.max(np.abs(A[:, j] - fitted))))
    ok = worst < 1e-10 and col_err < 1e-7
    report(11, ok, f"composition worst={worst:.2e} column gap={col_err:.2e}")
    assert worst < 1e-10
    assert col_err < 1e-7


def test_criterion_12_parameter_cantor_dimension(quadratic):
    t0 = time.perf_counter()
    Theta = [THETA_DOUBLING, THETA_TRIPLING]
    d4 = F.parameter_cantor_dimension(quadratic, Theta, 4)
    d3 = F.parameter_cantor_dimension(quadratic, Theta, 3)
    elapsed = time.perf_counter() - t0
    agreement = abs(d4.s_estimate - d3.s_estimate)
    ok = (0.01 < d4.s_estimate < 0.99 and agreement < 0.05
          and elapsed < 300.0)
    report(12, ok, f"s={d4.s_estimate:.4f} depth-3 gap={agreement:.4f} "
                   f"time={elapsed:.0f}s")
    assert 0.01 < d4.s_estimate < 0.99
    assert agreement < 0.05
    assert elapsed < 300.0


def test_criterion_13_cascade_accumulation(quadratic):
    casc = F.cascade(quadratic, 10)
    br = F.infinitely_renormalizable_parameter(quadratic, [THETA_DOUBLING], 9)
    ok = br.bracket[0] <= casc.c_infinity <= br.bracket[1]
    report(13, ok, f"c_inf={casc.c_infinity:.12f} bracket="
                   f"({br.bracket[0]:.12f}, {br.bracket[1]:.12f})")
    assert br.bracket[0] <= casc.c_infinity <= br.bracket[1]
