"""Seeded input generator: writes each workload's input files.

The same seed gives byte-identical files.  Every input is described by its
row count, censoring share and distinct-time share, so that two results can
show their inputs did not change.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# compare-boot: two arms of 200 rows, exponential event times with uniform
# censoring on (0, 3); about 30% of rows are censored, so in some bootstrap
# resamples the top decile is not computable.
BOOT_ROWS_PER_ARM = 200
BOOT_RATES = {"A": 1.0, "B": 0.75}
BOOT_CENSOR_UPPER = 3.0

# simulate-study: the paper's design (log-logistic alpha=1, beta=2, uniform
# censoring on (0, 7/3), about 50% censored) at ten times the paper's table.
SIM_DESIGN = {
    "n_datasets": 5000,
    "n": 200,
    "alpha": 1.0,
    "beta": 2.0,
    "censor_upper": 7.0 / 3.0,
    "lambdas": "0.2,0.4,0.6,0.8,0.95",
    "band_level": 0.95,
}

# registry-large: one 40 000-row two-arm file, float times all distinct,
# about 56% censored, so the pooled curve has roughly 17-18k steps.
REG_ROWS_PER_ARM = 20_000
REG_RATES = {"A": 1.0, "B": 0.85}
REG_CENSOR_UPPER = 1.4


def _arms(rng, rows_per_arm, rates, censor_upper):
    times, status, arms = [], [], []
    for label, rate in rates.items():
        t = rng.exponential(1.0 / rate, size=rows_per_arm)
        c = rng.uniform(0.0, censor_upper, size=rows_per_arm)
        times.append(np.minimum(t, c))
        status.append((t <= c).astype(np.int64))
        arms += [label] * rows_per_arm
    return np.concatenate(times), np.concatenate(status), arms


def _write_csv(path: Path, times, status, arms) -> dict:
    lines = ["time,status,arm"]
    lines += [f"{t!r},{s},{a}" for t, s, a in zip(times.tolist(), status.tolist(), arms)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "file": path.name,
        "rows": int(times.size),
        "censoring_share": float(1.0 - status.mean()),
        "distinct_time_share": float(np.unique(times).size / times.size),
        "bytes": path.stat().st_size,
    }


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write ``workload``'s inputs for ``seed`` into ``out_dir``.

    Returns ``{"files": {role: path}, "inputs": [stats...]}``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=[seed % 2**64, sum(map(ord, workload))]))
    if workload == "compare-boot":
        times, status, arms = _arms(rng, BOOT_ROWS_PER_ARM, BOOT_RATES, BOOT_CENSOR_UPPER)
        path = out_dir / "compare_boot.csv"
        return {"files": {"csv": path}, "inputs": [_write_csv(path, times, status, arms)]}
    if workload == "registry-large":
        times, status, arms = _arms(rng, REG_ROWS_PER_ARM, REG_RATES, REG_CENSOR_UPPER)
        if np.unique(times).size != times.size:
            raise RuntimeError("registry-large times must be distinct")
        path = out_dir / "registry_large.csv"
        return {"files": {"csv": path}, "inputs": [_write_csv(path, times, status, arms)]}
    if workload == "simulate-study":
        design = dict(SIM_DESIGN, seed=int(rng.integers(0, 2**31)))
        path = out_dir / "simulate_study.conf"
        path.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                                for k, v in design.items()), encoding="utf-8")
        # Censoring share of the design: P(C < T) for T log-logistic(alpha, beta),
        # C uniform(0, censor_upper), by the midpoint rule over C.
        c = (np.arange(200_000) + 0.5) / 200_000 * design["censor_upper"]
        surv_t = 1.0 / (1.0 + (c / design["alpha"]) ** design["beta"])
        return {
            "files": {"config": path},
            "inputs": [{
                "file": path.name,
                "rows": design["n_datasets"] * design["n"],
                "censoring_share": float(surv_t.mean()),
                "distinct_time_share": 1.0,  # continuous draws never tie
                "design": design,
                "bytes": path.stat().st_size,
            }],
        }
    raise ValueError(f"unknown workload {workload!r}")
