"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import math

import numpy as np

from helpers import (
    empirical_survival,
    km_curve_of,
    random_censored_dataset,
    random_grid,
    step_quantile_mu,
    uncensored,
)
from survfrac import (
    BandUndefinedError,
    Dataset,
    FractionGrid,
    SimConfig,
    bootstrap_compare,
    ep_band,
    fit_km,
    fraction_means,
    max_observed_fraction,
    restricted_mean,
    run_study,
    survival_at,
    true_fraction_means,
)
from survfrac.cli import main

TABLE1_GRID = FractionGrid.from_uppers((0.2, 0.4, 0.6, 0.8, 0.95))
TABLE1_TRUE_MU = (0.064, 0.131, 0.201, 0.311, 0.420)
TABLE1_NSIM = (1.00, 1.00, 1.00, 0.707, 0.058)
TABLE1_EVENTS = (34, 29, 23, 14, 4)
STUDY_SEED = 20260809


def report(num, name, failures):
    print(f"\nACCEPTANCE {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_truth_quadrature():
    failures = []
    got = true_fraction_means(1.0, 2.0, TABLE1_GRID)
    for k, (a, b) in enumerate(zip(got, TABLE1_TRUE_MU), start=1):
        if abs(a - b) > 0.0005:
            failures.append(f"mu_{k}: {a:.6f} vs {b} (tol 0.0005)")
    report(1, "truth quadrature vs published values", failures)


def test_criterion_2_scaled_study_reproduction():
    failures = []
    cfg = SimConfig(n_datasets=500, n=200, seed=STUDY_SEED)
    s = run_study(cfg)

    # (a) conditional means close to the truth
    for k, tol in ((0, 0.01), (1, 0.01), (2, 0.01), (3, 0.02)):
        if abs(s.mean_estimate[k] - s.true_mu[k]) > tol:
            failures.append(
                f"(a) k={k+1}: mean {s.mean_estimate[k]:.4f} vs "
                f"{s.true_mu[k]:.4f} (tol {tol})"
            )

    # (b) computable shares
    for k in range(5):
        if abs(s.computable_share[k] - TABLE1_NSIM[k]) > 0.05:
            failures.append(
                f"(b) k={k+1}: share {s.computable_share[k]:.3f} vs "
                f"{TABLE1_NSIM[k]} (tol 0.05)"
            )

    # (c) mean observed events per fraction
    for k in range(5):
        if abs(s.mean_events[k] - TABLE1_EVENTS[k]) > 2.0:
            failures.append(
                f"(c) k={k+1}: events {s.mean_events[k]:.2f} vs "
                f"{TABLE1_EVENTS[k]} (tol 2)"
            )

    # (d) realized censoring rate
    if not 0.47 < s.censoring_rate < 0.53:
        failures.append(f"(d) censoring rate {s.censoring_rate:.4f}")

    # (e) finite-upper-bound behavior
    for k in (0, 1):
        if s.finite_upper_share[k] < 0.99:
            failures.append(f"(e) k={k+1}: finite share {s.finite_upper_share[k]:.3f} < 0.99")
    if not 0.65 < s.finite_upper_share[2] < 0.85:
        failures.append(f"(e) k=3: finite share {s.finite_upper_share[2]:.3f} outside (0.65, 0.85)")
    for k in (3, 4):
        if s.finite_upper_share[k] > 0.5:
            failures.append(f"(e) k={k+1}: finite share {s.finite_upper_share[k]:.3f} not well below 1")

    report(2, "scaled simulation study reproduction", failures)


def _midpoint_oracle_counted(curve, grid, panels):
    """Midpoint-rule sum over ``panels`` equally spaced panels per fraction.

    The quantile step function is piecewise constant, so the panel sum is
    evaluated piece by piece: the midpoints form an arithmetic sequence and
    the number falling below each jump probability is counted directly.
    """
    cumprob = 1.0 - curve.survival
    out = []
    for lam_a, lam_b in zip(grid.lambdas, grid.lambdas[1:]):
        width = lam_b - lam_a
        h = width / panels

        def n_mid_below(x):
            if x <= lam_a:
                return 0
            r = math.ceil((x - lam_a) / h - 0.5)
            return int(min(max(r, 0), panels))

        total = 0.0
        prev = 0
        for j in range(cumprob.size):
            cnt = n_mid_below(cumprob[j])
            if cnt > prev:
                total += curve.times[j] * ((cnt - prev) * h)
            prev = max(prev, cnt)
        out.append(total)
    return out


def test_criterion_3_estimator_identities():
    failures = []
    rng = np.random.default_rng(314159)
    worst_rel = 0.0
    worst_abs = 0.0
    for i in range(1000):
        ds = random_censored_dataset(rng, n_range=(5, 50))
        curve = fit_km(ds)
        grid = random_grid(rng, max_observed_fraction(curve))
        fm = fraction_means(curve, grid)

        other = step_quantile_mu(curve, grid)
        for k, (a, b) in enumerate(zip(fm.mu, other)):
            rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
            worst_rel = max(worst_rel, rel)
            if rel > 1e-12 and abs(a - b) > 1e-300:
                failures.append(f"sample {i} k={k+1}: two-form rel {rel:.2e}")

        oracle = _midpoint_oracle_counted(curve, grid, panels=1_000_000)
        for k, (a, b) in enumerate(zip(fm.mu, oracle)):
            dev = abs(a - b)
            worst_abs = max(worst_abs, dev)
            if dev > 1e-6:
                failures.append(f"sample {i} k={k+1}: quadrature dev {dev:.2e}")
        if len(failures) > 5:
            break
    print(f"\n  worst two-form rel: {worst_rel:.3e}; worst quadrature dev: {worst_abs:.3e}")
    report(3, "estimator identity suite (1000 samples)", failures)


def test_criterion_4_hand_oracles():
    failures = []
    curve = fit_km(uncensored([1, 2, 3, 4]))
    fm = fraction_means(curve, FractionGrid((0.0, 0.5, 1.0)))
    if fm.mu != (0.75, 1.75):
        failures.append(f"mu {fm.mu} != (0.75, 1.75)")
    if fm.mu_bar != (1.5, 3.5):
        failures.append(f"mu_bar {fm.mu_bar} != (1.5, 3.5)")
    full = fraction_means(curve, FractionGrid((0.0, 1.0))).mu[0]
    if full != 2.5:
        failures.append(f"full-grid mean {full} != 2.5")
    rm = restricted_mean(curve, 2.0)
    if rm != 1.75:
        failures.append(f"restricted mean {rm} != 1.75")
    censored = km_curve_of([1, 2, 3], [0, 1, 1])
    steps = list(zip(censored.times, censored.survival))
    if steps != [(2.0, 0.5), (3.0, 0.0)]:
        failures.append(f"censored steps {steps}")
    report(4, "hand-oracle suite", failures)


def test_criterion_5_property_suite():
    failures = []
    rng = np.random.default_rng(271828)

    # partition additivity: exact on a rounding-free dyadic family
    for _ in range(20):
        n = int(rng.choice([4, 8, 16]))
        times = np.sort(rng.integers(1, 64, size=n)).astype(float)
        curve = fit_km(uncensored(times))
        eighths = FractionGrid(tuple(k / 8 for k in range(9)))
        halves = FractionGrid((0.0, 0.5, 1.0))
        fine = fraction_means(curve, eighths)
        coarse = fraction_means(curve, halves)
        if sum(fine.mu[:4]) != coarse.mu[0] or sum(fine.mu[4:]) != coarse.mu[1]:
            failures.append("dyadic additivity not exact")
            break

    # partition additivity: randomized continuous data at float resolution
    for _ in range(100):
        ds = random_censored_dataset(rng)
        curve = fit_km(ds)
        lam = float(rng.uniform(0.05, max_observed_fraction(curve)))
        mid = float(rng.uniform(0.2, 0.8)) * lam
        whole = fraction_means(curve, FractionGrid((0.0, lam))).mu[0]
        parts = fraction_means(curve, FractionGrid((0.0, mid, lam))).mu
        if abs(sum(parts) - whole) > 5e-14 * max(1.0, abs(whole)):
            failures.append(
                f"refinement sum {sum(parts)!r} vs {whole!r}"
            )
            break

    # normalized means nondecreasing over computable fractions
    for _ in range(100):
        ds = random_censored_dataset(rng)
        curve = fit_km(ds)
        grid = random_grid(rng, max_observed_fraction(curve), max_knots=5)
        fm = fraction_means(curve, grid)
        bars = [b for b, c in zip(fm.mu_bar, fm.computable) if c]
        for a, b in zip(bars, bars[1:]):
            if b < a - 1e-12 * max(1.0, abs(a)):
                failures.append(f"mu_bar not monotone: {a} -> {b}")
                break

    # scale equivariance
    grid = FractionGrid((0.0, 0.3, 0.6))
    for _ in range(30):
        ds = random_censored_dataset(rng)
        fm = fraction_means(fit_km(ds), grid)
        for c in (0.5, 3.0, 10.0):
            scaled = Dataset(times=ds.times * c, status=ds.status)
            fs = fraction_means(fit_km(scaled), grid)
            if fs.computable != fm.computable or fs.events != fm.events:
                failures.append(f"flags changed under scaling c={c}")
            for a, b in zip(fm.mu, fs.mu):
                ok = (b == c * a) if c == 0.5 else (
                    abs(b - c * a) <= 1e-12 * max(1.0, abs(c * a))
                )
                if not ok:
                    failures.append(f"scale c={c}: {b!r} vs {c * a!r}")

    # no-censoring reduction, exact
    for _ in range(40):
        n = int(rng.integers(1, 13))
        times = rng.integers(1, 9, size=n).astype(float)
        curve = fit_km(uncensored(times))
        for t in np.concatenate((curve.times, curve.times - 0.3, [0.0, 1e9])):
            if t >= 0 and survival_at(curve, t) != empirical_survival(times, t):
                failures.append(f"reduction differs at t={t}")

    # band ordering on every tested curve
    tested = 0
    for _ in range(60):
        ds = random_censored_dataset(rng, n_range=(8, 80))
        curve = fit_km(ds)
        for level in (0.8, 0.9, 0.95, 0.99):
            try:
                band = ep_band(curve, level)
            except BandUndefinedError:
                continue
            tested += 1
            inside = (curve.times >= band.range[0]) & (curve.times <= band.range[1])
            s = curve.survival[inside]
            if not (
                np.all(band.lower <= s + 1e-15)
                and np.all(s <= band.upper + 1e-15)
                and np.all(band.lower >= 0.0)
                and np.all(band.upper <= 1.0)
            ):
                failures.append(f"band ordering violated at level {level}")
    if tested < 100:
        failures.append(f"only {tested} bands tested")

    report(5, "property suite", failures)


def _two_group_sample(seed=97, n0=30, n1=28):
    rng = np.random.default_rng(seed)
    g0 = random_censored_dataset(rng, n=n0)
    g1 = random_censored_dataset(rng, n=n1)
    return g0, g1


def test_criterion_6_bootstrap_determinism_and_symmetry():
    failures = []
    g0, g1 = _two_group_sample()
    grid = FractionGrid((0.0, 0.2, 0.4))

    serial = bootstrap_compare(g0, g1, grid, B=400, seed=12).fractions
    again = bootstrap_compare(g0, g1, grid, B=400, seed=12).fractions
    parallel = bootstrap_compare(g0, g1, grid, B=400, seed=12, workers=3).fractions
    if serial != again:
        failures.append("rerun not identical")
    if serial != parallel:
        failures.append("parallel run not identical")

    same = bootstrap_compare(g0, g0, grid, B=400, seed=12).fractions
    if any(est.point != 0.0 for est in same):
        failures.append("identical groups gave nonzero point")

    swapped = bootstrap_compare(g1, g0, grid, B=400, seed=12).fractions
    for f, r in zip(serial, swapped):
        if r.point != -f.point:
            failures.append("swap did not negate point")
        if (r.ci_lower, r.ci_upper) != (-f.ci_upper, -f.ci_lower):
            failures.append("swap did not reflect interval")

    report(6, "bootstrap determinism and symmetry", failures)


def test_criterion_7_comparison_document(tmp_path, capsys):
    failures = []
    rng = np.random.default_rng(55)
    rows = ["time,status,arm"]
    for arm, scale in (("allo", 25.0), ("auto", 40.0)):
        t = rng.exponential(scale, size=18)
        c = rng.uniform(0, 80.0, size=18)
        for ti, ci in zip(t, c):
            rows.append(f"{float(min(ti, ci))!r},{int(ti <= ci)},{arm}")
    path = tmp_path / "arms.csv"
    path.write_text("\n".join(rows) + "\n")

    args = [
        "compare", "--input", str(path), "--group-col", "arm",
        "--ref-group", "allo", "--bootstrap", "400", "--seed", "21",
        "--restricted-mean", "--format", "json",
    ]
    code = main(args)
    out1 = capsys.readouterr().out
    if code != 0:
        failures.append(f"exit code {code}")
    doc = json.loads(out1)

    table = doc["sections"][0]
    for col in ("k", "lambda", "diff", "ci_lower", "ci_upper",
                "effective_replicates"):
        if col not in table["columns"]:
            failures.append(f"missing column {col}")

    # point estimates equal the direct per-group difference exactly
    from survfrac import parse_csv, split_by_group

    groups = split_by_group(parse_csv(str(path), group_col="arm"))
    grid = FractionGrid(tuple(doc["metadata"]["lambdas"]))
    fm0 = fraction_means(fit_km(groups["allo"]), grid)
    fm1 = fraction_means(fit_km(groups["auto"]), grid)
    for row, b0, b1 in zip(table["rows"], fm0.mu_bar, fm1.mu_bar):
        if row["diff"] != b1 - b0:
            failures.append(f"k={row['k']}: CLI diff differs from direct call")

    # grid truncated to the common max fraction
    common = min(
        max_observed_fraction(fit_km(groups[g])) for g in ("allo", "auto")
    )
    if grid.lambdas[-1] > common + 1e-12:
        failures.append("grid not truncated to common max fraction")

    # determinism: byte-identical reruns
    code = main(args)
    out2 = capsys.readouterr().out
    if out1 != out2:
        failures.append("rerun not byte-identical")

    # symmetry: swapping the reference group negates and reflects
    swapped_args = list(args)
    swapped_args[swapped_args.index("allo")] = "auto"
    main(swapped_args)
    doc_swapped = json.loads(capsys.readouterr().out)
    for row, srow in zip(table["rows"], doc_swapped["sections"][0]["rows"]):
        if srow["diff"] != -row["diff"]:
            failures.append("swapped diff not negated")
        if (srow["ci_lower"], srow["ci_upper"]) != (
            -row["ci_upper"], -row["ci_lower"]
        ):
            failures.append("swapped interval not reflected")

    report(7, "comparison document substitute for the application table", failures)


def test_criterion_8_coverage_sanity():
    failures = []
    grid = FractionGrid((0.0, 0.1))
    rng = np.random.default_rng(424242)
    trials = 200
    hits = 0
    for trial in range(trials):
        u0 = rng.random(100)
        u1 = rng.random(100)
        g0 = Dataset(times=np.sqrt(u0 / (1 - u0)), status=np.ones(100, dtype=np.int64))
        g1 = Dataset(times=np.sqrt(u1 / (1 - u1)), status=np.ones(100, dtype=np.int64))
        est = bootstrap_compare(g0, g1, grid, B=200, seed=trial).fractions[0]
        if est.ci_lower <= 0.0 <= est.ci_upper:
            hits += 1
    share = hits / trials
    print(f"\n  coverage of 0: {share:.3f} ({hits}/{trials})")
    if share < 0.90:
        failures.append(f"coverage {share:.3f} < 0.90")
    report(8, "bootstrap interval coverage sanity", failures)
