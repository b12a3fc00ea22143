"""End-to-end acceptance checks, one test per published criterion.

Each test prints a single "criterion N: PASS/FAIL - detail" line before
asserting, so a verbose run reads as a checklist. Stochastic checks use
fixed, pre-registered seeds; the Monte-Carlo oracle in criterion 4 runs
on numpy's own generator so it shares nothing with the package streams.
"""
import time

import numpy as np
import pytest

from panelmetrics.anchors import normal_limit_anchor
from panelmetrics.cli import main
from panelmetrics.empirics import (
    constrained_intercept_fit,
    optimal_weights,
)
from panelmetrics.laws import (
    efficiency_exponent,
    p20_single,
    panel_precision,
    spearman_brown,
)
from panelmetrics.precision import (
    generalized_precision,
    precision_at_q,
    precision_curve,
    top_count,
)
from panelmetrics.simulate import (
    PRESETS,
    b_grid_scan,
    fit_exponent_b,
    generate_universe,
    panel_precision_scan,
    regress_b_on_rho,
)
from panelmetrics.special import (
    bivariate_normal_cdf,
    std_normal_quantile,
    student_t_sf_two_sided,
)
from panelmetrics.streams import (
    SeededStream,
    add_calibrated_noise,
    correlation_summary,
    sample_signal,
)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_formula_reproduction():
    t0 = time.perf_counter()
    b = efficiency_exponent(0.2, 0.55)
    values = {n: panel_precision(0.2, 0.55, n, b) for n in (1, 3, 5, 10, 25)}
    per_call = (time.perf_counter() - t0) / 6

    targets = {1: (0.640, 5e-4), 3: (0.755, 0.005), 5: (0.801, 0.005),
               10: (0.853, 0.01), 25: (0.905, 0.01)}
    ok = b == 0.56 and per_call < 1e-3
    for n, (target, tol) in targets.items():
        ok = ok and abs(values[n] - target) <= tol
    detail = (
        f"b={b!r}, "
        + ", ".join(f"P(n={n})={values[n]:.4f}" for n in targets)
        + f", {per_call * 1e6:.0f} us/call"
    )
    report(1, ok, detail)
    assert ok, detail


def test_criterion_2_spearman_brown_table():
    t0 = time.perf_counter()
    preds = {n: spearman_brown(n, 0.545) for n in (2, 3, 4)}
    per_call = (time.perf_counter() - t0) / 3

    targets = {2: 0.7055, 3: 0.7823, 4: 0.8273}
    ok = per_call < 1e-3 and all(
        abs(preds[n] - targets[n]) <= 5e-5 for n in targets
    )
    detail = ", ".join(f"n={n}: {preds[n]:.4f}" for n in targets)
    report(2, ok, detail)
    assert ok, detail


def test_criterion_3_p_value_oracle():
    def corr_p(r, n):
        t = abs(r) * np.sqrt((n - 2) / (1.0 - r * r))
        return student_t_sf_two_sided(float(t), n - 2)

    t0 = time.perf_counter()
    p_weak = corr_p(0.218, 25)
    p_strong = corr_p(0.781, 25)
    per_call = (time.perf_counter() - t0) / 2

    ok = abs(p_weak - 0.2948) <= 0.0020 and p_strong < 1e-4 and per_call < 1e-3
    detail = f"p(r=0.218)={p_weak:.6f}, p(r=0.781)={p_strong:.3g}"
    report(3, ok, detail)
    assert ok, detail


def test_criterion_4_bivariate_normal_anchor():
    t0 = time.perf_counter()
    rho_zero_errs = [
        abs(normal_limit_anchor(m, 0.0) - 1.0 / m) for m in (10, 200, 2000)
    ]
    orthant = bivariate_normal_cdf(0.0, 0.0, 0.5)

    # independent oracle: expected joint threshold exceedances per batch,
    # scaled by q*m, estimates the same limiting quantity the formula gives
    m, rho = 200, 0.8
    q = 1.0 / m
    z = std_normal_quantile(1.0 - q)
    L = np.linalg.cholesky(np.array([[1.0, rho], [rho, 1.0]]))
    rng = np.random.default_rng(3)
    trials, chunk = 200_000, 2000
    total = 0
    for _ in range(trials // chunk):
        zz = rng.standard_normal((chunk, m, 2)) @ L.T
        total += int(((zz[..., 0] > z) & (zz[..., 1] > z)).sum())
    mc = total / (trials * q * m)
    formula = normal_limit_anchor(m, rho)
    elapsed = time.perf_counter() - t0

    ok = (
        max(rho_zero_errs) <= 1e-9
        and abs(orthant - 1.0 / 3.0) <= 1e-6
        and abs(mc - formula) <= 3e-3
        and elapsed < 30.0
    )
    detail = (
        f"max|anchor(m,0)-1/m|={max(rho_zero_errs):.2e}, "
        f"orthant={orthant:.7f}, mc={mc:.5f} vs formula={formula:.5f} "
        f"(diff {mc - formula:+.5f}), {elapsed:.1f}s"
    )
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_desk_scale_b_grid():
    t0 = time.perf_counter()
    rhos = [0.30, 0.40, 0.50, 0.60, 0.70, 0.80]
    rows = b_grid_scan([0.2], rhos, PRESETS["desk"], 0)
    reg = regress_b_on_rho(rows)
    elapsed = time.perf_counter() - t0

    cell_diffs = [
        row.best_b - (0.2 + 0.8 * (1.0 - row.measured_rho)) for row in rows
    ]
    slope_ok = abs(reg.slope - (-0.80)) <= 0.10
    intercept_ok = abs(reg.intercept - 1.00) <= 0.06
    r2_ok = reg.r_squared >= 0.90
    cells_ok = all(abs(d) <= 0.08 for d in cell_diffs)
    ok = slope_ok and intercept_ok and r2_ok and cells_ok and elapsed < 600.0

    for row, diff in zip(rows, cell_diffs):
        print(
            f"  cell rho_t={row.target_rho:.2f}: measured={row.measured_rho:.4f} "
            f"b={row.best_b:.4f} diff_vs_law={diff:+.4f}"
            f"{'' if abs(diff) <= 0.08 else '  <-- outside 0.08'}"
        )
    detail = (
        f"slope={reg.slope:.4f} ({'ok' if slope_ok else 'OUT'}), "
        f"intercept={reg.intercept:.4f} ({'ok' if intercept_ok else 'OUT'}), "
        f"R^2={reg.r_squared:.4f} ({'ok' if r2_ok else 'OUT'}), "
        f"max|cell diff|={max(abs(d) for d in cell_diffs):.4f} "
        f"({'ok' if cells_ok else 'OUT'}), {elapsed:.0f}s"
    )
    report(5, ok, detail)
    assert ok, detail


def test_criterion_6_intercept_tracks_mean_correlation(equicorr_matrix):
    t0 = time.perf_counter()
    m, n_ai = 2000, 5
    grid = np.linspace(1.0 / m, 1.0, 50)
    intercepts, rho_bars = [], []
    # the claim is conditioned on matrices whose measured mean pairwise
    # correlation lands in 0.55 +- 0.02, so walk seeds deterministically
    # and keep the first 50 that qualify
    seed = 0
    skipped = 0
    while len(intercepts) < 50:
        mat = equicorr_matrix(m, n_ai, 0.55, seed=seed)
        seed += 1
        corr, rho_bar = correlation_summary(mat)
        if abs(rho_bar - 0.55) > 0.02:
            skipped += 1
            continue
        curves = precision_curve(mat, mat @ optimal_weights(corr), grid)
        intercepts.append(constrained_intercept_fit(grid, curves.mean(axis=0)))
        rho_bars.append(rho_bar)
    elapsed = time.perf_counter() - t0

    rho_bars = np.asarray(rho_bars)
    avg_intercept = float(np.mean(intercepts))
    avg_rho = float(rho_bars.mean())
    gap = avg_intercept - avg_rho
    ok = abs(gap) <= 0.05 and elapsed < 120.0
    detail = (
        f"avg intercept={avg_intercept:.4f} vs avg rho_bar={avg_rho:.4f} "
        f"(gap {gap:+.4f}), rho_bar range "
        f"[{rho_bars.min():.4f}, {rho_bars.max():.4f}], "
        f"{skipped} draws outside band, {elapsed:.0f}s"
    )
    report(6, ok, detail)
    assert ok, detail


def test_criterion_7_single_scorer_simulation():
    t0 = time.perf_counter()
    m, rho, trials = 2000, 0.8, 500
    root = SeededStream(7)
    signal_root, noise_root = root.derive(0), root.derive(1)
    total = 0.0
    for trial in range(trials):
        nu = sample_signal("normal", m, signal_root.derive(trial).generator())
        x = add_calibrated_noise(nu, rho, noise_root.derive(trial).generator())
        total += precision_at_q(x, nu, 0.2)
    simulated = total / trials
    target = p20_single(rho)
    elapsed = time.perf_counter() - t0

    ok = abs(simulated - target) <= 0.03 and elapsed < 60.0
    detail = (
        f"simulated P(0.2)={simulated:.4f} vs p20_single(0.8)={target:.4f} "
        f"(diff {simulated - target:+.4f}), {elapsed:.0f}s"
    )
    report(7, ok, detail)
    assert ok, detail


def test_criterion_8_property_suite(equicorr_matrix):
    t0 = time.perf_counter()
    g = SeededStream(8).generator()
    checks = {}

    x = g.normal(size=500)
    checks["self_agreement"] = all(
        precision_at_q(x, x, q) == 1.0 for q in (0.01, 0.2, 1.0)
    )

    v = g.normal(size=500)
    u = g.uniform(-5.0, 5.0, size=500)
    w = g.uniform(-5.0, 5.0, size=500)
    checks["monotone_transform"] = precision_at_q(
        2.0 * x, 0.5 * v, 0.2
    ) == precision_at_q(x, v, 0.2) and precision_at_q(
        np.exp(u), np.arctan(w), 0.2
    ) == precision_at_q(u, w, 0.2)

    bound_ok = True
    for h in (0.05, 0.2, 0.5, 1.0):
        for q in (0.05, 0.2, 0.5, 1.0):
            gp = generalized_precision(h, q, x, v)
            cap = min(1.0, top_count(q, 500) / top_count(h, 500))
            bound_ok = bound_ok and gp <= cap + 1e-12
    checks["generalized_bound"] = bound_ok

    mono_ok = True
    for rho in (0.1, 0.3, 0.5, 0.7, 0.9):
        b = efficiency_exponent(0.2, rho)
        vals = [panel_precision(0.2, rho, n, b) for n in range(1, 31)]
        mono_ok = mono_ok and np.all(np.diff(vals) >= -1e-12)
    for n in (1, 3, 10, 30):
        vals = [
            panel_precision(0.2, r, n, efficiency_exponent(0.2, r))
            for r in np.linspace(0.0, 1.0, 21)
        ]
        mono_ok = mono_ok and np.all(np.diff(vals) >= -1e-12)
    checks["law_monotone"] = bool(mono_ok)

    sizes = np.arange(1, 26)
    fit_ok = True
    for b0 in (0.3, 0.7, 1.2):
        nb = sizes**b0
        p = (nb * 0.5 + 0.2 * 0.5) / (1.0 + (nb - 1.0) * 0.5)
        fit_ok = fit_ok and abs(fit_exponent_b(sizes, p, 0.5, 0.2) - b0) <= 1e-3
    checks["fit_round_trip"] = fit_ok

    full = panel_precision_scan(
        generate_universe(0.5, 20, 400, SeededStream(88)), 0.2, SeededStream(89),
        sizes=[20], samples_per_size=10,
    )
    checks["full_panel_precision_one"] = full[0] == 1.0

    weights = optimal_weights(correlation_summary(equicorr_matrix(300, 3, 0.5, seed=8))[0])
    checks["weights_sum_one"] = abs(weights.sum() - 1.0) <= 1e-9

    b_pair = []
    for boost in (0.0, 1.0):
        scores = generate_universe(0.5, 40, 1000, SeededStream(0, 5), boost)
        avg = panel_precision_scan(
            scores, 0.2, SeededStream(1, 5), sizes=range(1, 13), samples_per_size=300
        )
        b_pair.append(fit_exponent_b(range(1, 13), avg, correlation_summary(scores)[1], 0.2))
    checks["boost_invariance"] = abs(b_pair[1] - b_pair[0]) <= 0.1
    elapsed = time.perf_counter() - t0

    ok = all(checks.values()) and elapsed < 60.0
    failed = [name for name, passed in checks.items() if not passed]
    detail = (
        f"{len(checks)} properties, "
        + (f"failed: {', '.join(failed)}" if failed else "all hold")
        + f", boost b {b_pair[0]:.4f} vs {b_pair[1]:.4f}, {elapsed:.0f}s"
    )
    report(8, ok, detail)
    assert ok, detail


def test_criterion_9_determinism(tmp_path):
    args = [
        "scaling",
        "--q", "0.2",
        "--rho", "0.4,0.6",
        "--samples", "50",
        "--max-size", "6",
        "--seed", "0",
    ]
    out_1 = tmp_path / "threads1"
    out_4 = tmp_path / "threads4"
    assert main([*args, "--out", str(out_1), "--threads", "1"]) == 0
    assert main([*args, "--out", str(out_4), "--threads", "4"]) == 0

    names = ("b_grid.csv", "regression.csv", "b_grid.json")
    mismatched = [
        name
        for name in names
        if (out_1 / name).read_bytes() != (out_4 / name).read_bytes()
    ]
    ok = not mismatched
    detail = (
        f"{len(names)} result files byte-compared across 1 vs 4 threads"
        + (f"; mismatched: {', '.join(mismatched)}" if mismatched else "; identical")
    )
    report(9, ok, detail)
    assert ok, detail


@pytest.mark.slow
def test_paper_scale_cell_matches_published_fit():
    """Full-size single cell; not an acceptance criterion, a fidelity check."""
    rows = b_grid_scan([0.2], [0.3], PRESETS["paper"], 0)
    assert abs(rows[0].best_b - 0.760526) <= 0.08, rows[0]
