"""Independent reference values and the correctness check for every output.

Nothing here imports ``survfrac``.  The estimators are written again from
their definitions (README "Conventions in effect"): the product-limit curve
with exact integer products and one rounded division per step, fraction
means over the survival window, the Nair equal-precision band with the
boundary-crossing critical value, and the percentile bootstrap over the
content-keyed Philox streams that the determinism contract fixes.

Outputs are compared field by field within stated tolerances, never byte
for byte, because a faster but equally correct program may move the last
bits of a float.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

# Fields computed from the curve alone: a correct program agrees to ~1e-15;
# the slack admits a different summation order or a telescoped product.
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Fields that pass through the band's critical value, which is a bisection
# root known only to 1e-6.
BAND_REL_TOL = 1e-5
BAND_ABS_TOL = 1e-8
# A bootstrap replicate whose fraction sits exactly on a grid level can flip
# between computable and not under last-bit changes; a percentile endpoint
# may then move to a neighbouring order statistic, and the effective count
# by a few replicates.
CI_NEIGHBOURS = 3
EFF_SLACK_SHARE = 0.005

MIN_RISK_SHARE = 0.05
BOOT_FLOOR_SHARE = 0.5


# ----------------------------------------------------------------- estimators

class Curve:
    """Product-limit steps of one sample (events before censorings at ties)."""

    def __init__(self, times, status):
        times = np.asarray(times, dtype=float)
        status = np.asarray(status, dtype=np.int64)
        self.n = int(times.size)
        uniq, inverse = np.unique(times, return_inverse=True)
        deaths = np.bincount(inverse, weights=status, minlength=uniq.size).astype(np.int64)
        leaving = np.bincount(inverse, minlength=uniq.size)
        at_risk = self.n - np.concatenate(([0], np.cumsum(leaving)[:-1]))
        keep = deaths > 0
        self.times = uniq[keep]
        self.at_risk = at_risk[keep]
        self.events = deaths[keep]
        surv, gw = [], []
        num = den = 1
        acc = 0.0
        for n_j, d_j in zip(self.at_risk.tolist(), self.events.tolist()):
            num *= n_j - d_j
            den *= n_j
            surv.append(num / den)
            acc += d_j / (n_j * (n_j - d_j)) if n_j > d_j else math.inf
            gw.append(acc)
        self.survival = np.array(surv)
        self.greenwood = np.array(gw)

    @property
    def max_fraction(self) -> float:
        return 1.0 - float(self.survival[-1])


def decile_lambdas(max_fraction: float) -> list[float]:
    return [0.0] + [k / 10 for k in range(1, 11) if k / 10 <= max_fraction + 1e-12]


def window_mass(times, edge, hi, lo):
    """Sum of t_j * |[edge_j, edge_{j-1}] ∩ [lo, hi]|, with edge_0 = 1."""
    prev = np.concatenate(([1.0], edge[:-1]))
    width = np.maximum(np.minimum(prev, hi) - np.maximum(edge, lo), 0.0)
    return math.fsum((times * width).tolist()), width > 0.0


def fraction_means(curve: Curve, lambdas):
    """Per fraction: (mu, mu_bar, computable, events)."""
    out = []
    for a, b in zip(lambdas, lambdas[1:]):
        hi, lo = 1.0 - a, 1.0 - b
        mass, touched = window_mass(curve.times, curve.survival, hi, lo)
        out.append((mass, mass / (b - a), bool(np.any(curve.survival <= lo)),
                    int(curve.events[touched].sum())))
    return out


def restricted_mean(curve: Curve, horizon: float) -> float:
    parts, prev_t, prev_s = [], 0.0, 1.0
    for t, s in zip(curve.times.tolist(), curve.survival.tolist()):
        t = min(t, horizon)
        parts.append(prev_s * max(t - prev_t, 0.0))
        prev_t, prev_s = max(prev_t, t), s
    parts.append(prev_s * max(horizon - prev_t, 0.0))
    return math.fsum(parts)


def ep_coefficient(a_lo: float, a_hi: float, level: float) -> float:
    """Root of alpha = phi(e) [(e - 1/e) log(a_U(1-a_L)/(a_L(1-a_U))) + 4/e]."""
    alpha = 1.0 - level
    log_ratio = math.log(a_hi * (1.0 - a_lo) / (a_lo * (1.0 - a_hi)))

    def crossing(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * (
            (x - 1.0 / x) * log_ratio + 4.0 / x)

    lo, hi = 1.0, 2.0
    while crossing(hi) > alpha:
        hi *= 2.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if crossing(mid) > alpha else (lo, mid)
    return 0.5 * (lo + hi)


class Band:
    """Equal-precision band S -+ e S sqrt(greenwood), clipped to [0, 1].

    ``defined`` is False where the program must report the band undefined.
    """

    def __init__(self, curve: Curve, level: float):
        self.defined = False
        usable = (curve.survival > 0.0) & (curve.at_risk >= MIN_RISK_SHARE * curve.n)
        if not usable.any():
            return
        t_lo, t_hi = float(curve.times[0]), float(curve.times[np.nonzero(usable)[0][-1]])
        inside = (curve.times >= t_lo) & (curve.times <= t_hi)
        surv, gw = curve.survival[inside], curve.greenwood[inside]
        if np.any(surv <= 0.0) or not np.all(np.isfinite(gw)):
            return
        a = curve.n * gw / (1.0 + curve.n * gw)
        if not (0.0 < a[0] < a[-1] < 1.0):
            return
        self.defined = True
        self.range = (t_lo, t_hi)
        self.times = curve.times[inside]
        self.coefficient = ep_coefficient(float(a[0]), float(a[-1]), level)
        half = self.coefficient * surv * np.sqrt(gw)
        self.lower = np.clip(surv - half, 0.0, 1.0)
        self.upper = np.clip(surv + half, 0.0, 1.0)


def fraction_bounds(band: Band, lambdas):
    lower = np.minimum.accumulate(band.lower)
    upper = np.minimum.accumulate(band.upper)
    out = []
    for a, b in zip(lambdas, lambdas[1:]):
        hi, lo = 1.0 - a, 1.0 - b
        lo_mass, _ = window_mass(band.times, lower, hi, lo)
        up_mass = window_mass(band.times, upper, hi, lo)[0] if upper[-1] <= lo else math.inf
        out.append((lo_mass, up_mass))
    return out


def read_csv(path, group_col=None):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    times = np.array([float(r["time"]) for r in rows])
    status = np.array([int(r["status"]) for r in rows], dtype=np.int64)
    groups = [r[group_col] for r in rows] if group_col else None
    return times, status, groups


def split(times, status, groups):
    out = {}
    for label in dict.fromkeys(groups):
        mask = np.array([g == label for g in groups])
        out[label] = (times[mask], status[mask])
    return out


# ------------------------------------------------------------ reference docs

def ref_estimate(csv_path, band_level=0.95):
    times, status, _ = read_csv(csv_path)
    curve = Curve(times, status)
    lambdas = decile_lambdas(curve.max_fraction)
    band = Band(curve, band_level)
    bounds = fraction_bounds(band, lambdas) if band.defined else None
    rows = []
    for j, (mu, mu_bar, comp, ev) in enumerate(fraction_means(curve, lambdas)):
        lo, up = bounds[j] if bounds else (None, None)
        rows.append({"k": j + 1, "lambda": lambdas[j + 1], "mu": mu, "mu_bar": mu_bar,
                     "lower": lo, "upper": up,
                     "upper_finite": None if up is None else math.isfinite(up),
                     "computable": comp, "events": ev})
    meta = {"n": int(times.size), "events": int(status.sum()),
            "max_observed_fraction": curve.max_fraction, "lambdas": lambdas,
            "band_coefficient": band.coefficient if band.defined else None}
    return {"metadata": meta, "rows": rows}


def ref_km_curve(csv_path, band_level=0.95):
    times, status, groups = read_csv(csv_path, "arm")
    sections = {}
    for label, (t, s) in split(times, status, groups).items():
        curve = Curve(t, s)
        band = Band(curve, band_level)
        rows = [{"time": 0.0, "survival": 1.0, "at_risk": curve.n, "events": 0,
                 "greenwood": 0.0, "lower": None, "upper": None}]
        for j in range(curve.times.size):
            tj = float(curve.times[j])
            lo = up = None
            if band.defined and band.range[0] <= tj <= band.range[1]:
                idx = int(np.searchsorted(band.times, tj, side="right")) - 1
                lo, up = float(band.lower[idx]), float(band.upper[idx])
            rows.append({"time": tj, "survival": float(curve.survival[j]),
                         "at_risk": int(curve.at_risk[j]), "events": int(curve.events[j]),
                         "greenwood": float(curve.greenwood[j]), "lower": lo, "upper": up})
        sections[label] = rows
    return sections


def _digest(times, status) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(np.ascontiguousarray(times, dtype=float).tobytes())
    h.update(np.ascontiguousarray(status, dtype=np.int64).tobytes())
    return int.from_bytes(h.digest(), "little")


def _resample_index(n, seed, digest, replicate):
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(digest)])
    counter = np.array([0, 0, 0, replicate], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=counter))
    return rng.integers(0, n, size=n)


def _percentile_ranks(b, level):
    lo_rank = max(1, math.ceil((1.0 - level) / 2.0 * b))
    return lo_rank, b + 1 - lo_rank


def ref_compare(csv_path, ref_group, B, level, seed):
    """Point differences and the bootstrap columns, one pass per replicate."""
    times, status, groups = read_csv(csv_path, "arm")
    parts = split(times, status, groups)
    (other,) = [g for g in parts if g != ref_group]
    g0, g1 = parts[ref_group], parts[other]
    c0, c1 = Curve(*g0), Curve(*g1)
    common = min(c0.max_fraction, c1.max_fraction)
    lambdas = decile_lambdas(common)
    horizon = min(float(c0.times[-1]), float(c1.times[-1]))
    fm0, fm1 = fraction_means(c0, lambdas), fraction_means(c1, lambdas)
    points = [b[1] - a[1] for a, b in zip(fm0, fm1)]
    rm_point = restricted_mean(c1, horizon) - restricted_mean(c0, horizon)

    d0, d1 = _digest(*g0), _digest(*g1)
    k = len(lambdas) - 1
    cols = [[] for _ in range(k)]
    rm_col = []
    for r in range(B):
        i0 = _resample_index(g0[0].size, seed, d0, r)
        i1 = _resample_index(g1[0].size, seed, d1, r)
        s0, s1 = (g0[0][i0], g0[1][i0]), (g1[0][i1], g1[1][i1])
        if s0[1].sum() == 0 or s1[1].sum() == 0:
            continue
        r0, r1 = Curve(*s0), Curve(*s1)
        f0, f1 = fraction_means(r0, lambdas), fraction_means(r1, lambdas)
        for j in range(k):
            if f0[j][2] and f1[j][2]:
                cols[j].append(f1[j][1] - f0[j][1])
        rm_col.append(restricted_mean(r1, horizon) - restricted_mean(r0, horizon))

    def summary(col, point):
        ordered = sorted(col)
        lo_rank, up_rank = _percentile_ranks(len(ordered), level) if ordered else (0, 0)
        return {"diff": point, "effective_replicates": len(ordered),
                "unreliable": len(ordered) < BOOT_FLOOR_SHARE * B,
                "ordered": ordered, "ranks": (lo_rank, up_rank)}

    return {
        "metadata": {"group_sizes": {ref_group: int(g0[0].size), other: int(g1[0].size)},
                     "common_max_fraction": common, "lambdas": lambdas,
                     "restricted_mean_horizon": horizon, "bootstrap": B},
        "rows": [dict(summary(cols[j], points[j]), k=j + 1, **{"lambda": lambdas[j + 1]})
                 for j in range(k)],
        "restricted": summary(rm_col, rm_point),
    }


def _betainc_integral(lo, hi, beta):
    """Integral of (p/(1-p))^(1/beta) dp over [lo, hi], hi < 1.

    The substitution p = x^4 makes the integrand smooth at p = 0; a
    composite 64-point Gauss-Legendre rule then reaches double precision.
    """
    nodes, weights = np.polynomial.legendre.leggauss(64)
    m = 4.0
    edges = np.linspace(lo ** (1.0 / m), hi ** (1.0 / m), 33)
    total = []
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * nodes + 0.5 * (b + a)
        p = x ** m
        total.append(0.5 * (b - a) * float(weights @ ((p / (1.0 - p)) ** (1.0 / beta) * m * x ** (m - 1.0))))
    return math.fsum(total)


def _sim_replicate(design, index):
    key = np.array([np.uint64(design["seed"] & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    rng = np.random.Generator(np.random.Philox(key=key))
    u_event = rng.random(design["n"])
    u_censor = rng.random(design["n"])
    t = design["alpha"] * (u_event / (1.0 - u_event)) ** (1.0 / design["beta"])
    c = design["censor_upper"] * u_censor
    return np.minimum(t, c), (t <= c).astype(np.int64)


def ref_simulate(design):
    lambdas = [0.0] + [float(x) for x in design["lambdas"].split(",")]
    k = len(lambdas) - 1
    n_rep = design["n_datasets"]
    mu_sum, mu_cnt, ev_sum = [[] for _ in range(k)], [0] * k, [0] * k
    low_sum, low_cnt, up_sum, up_cnt = [[] for _ in range(k)], [0] * k, [[] for _ in range(k)], [0] * k
    band_defined = censored = 0
    for i in range(n_rep):
        t, s = _sim_replicate(design, i)
        censored += int(s.size - s.sum())
        curve = Curve(t, s)
        fm = fraction_means(curve, lambdas)
        band = Band(curve, design["band_level"])
        bounds = fraction_bounds(band, lambdas) if band.defined else None
        band_defined += band.defined
        for j in range(k):
            if fm[j][2]:
                mu_cnt[j] += 1
                mu_sum[j].append(fm[j][0])
                ev_sum[j] += fm[j][3]
                if bounds:
                    low_cnt[j] += 1
                    low_sum[j].append(bounds[j][0])
            if bounds and math.isfinite(bounds[j][1]):
                up_cnt[j] += 1
                up_sum[j].append(bounds[j][1])

    def ratio(vals, cnt):
        return math.fsum(vals) / cnt if cnt else None

    rows = []
    for j in range(k):
        a, b = lambdas[j], lambdas[j + 1]
        true_mu = design["alpha"] * _betainc_integral(a, b, design["beta"])
        mean_upper = (ratio(up_sum[j], up_cnt[j]) if up_cnt[j]
                      else (math.inf if band_defined else None))
        rows.append({
            "k": j + 1, "lambda": b, "true_mu": true_mu,
            "mean_estimate": ratio(mu_sum[j], mu_cnt[j]),
            "mean_lower": ratio(low_sum[j], low_cnt[j]),
            "mean_upper": mean_upper,
            "computable_share": mu_cnt[j] / n_rep,
            "finite_upper_share": up_cnt[j] / band_defined if band_defined else None,
            "mean_events": ev_sum[j] / mu_cnt[j] if mu_cnt[j] else None,
        })
    meta = {"n_datasets": n_rep, "n": design["n"], "seed": design["seed"],
            "lambdas": lambdas, "censoring_rate": censored / (n_rep * design["n"]),
            "band_undefined_count": n_rep - band_defined}
    return {"metadata": meta, "rows": rows}


# ------------------------------------------------------------------ checking

class Mismatch(Exception):
    pass


def _num(value):
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


def _close(got, want, where, rel=REL_TOL, abs_=ABS_TOL):
    got = _num(got)
    if want is None or (isinstance(want, float) and math.isnan(want)):
        if got is not None:
            raise Mismatch(f"{where}: expected null, got {got!r}")
        return
    if isinstance(want, bool) or isinstance(want, int):
        if got != want or type(got) is not type(want):
            raise Mismatch(f"{where}: expected {want!r}, got {got!r}")
        return
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        raise Mismatch(f"{where}: expected a number, got {got!r}")
    if math.isinf(want) or math.isinf(got):
        if got != want:
            raise Mismatch(f"{where}: expected {want!r}, got {got!r}")
        return
    if abs(got - want) > abs_ + rel * abs(want):
        raise Mismatch(f"{where}: expected {want!r}, got {got!r}")


def _fields(got_row, want_row, names, where, **tol):
    for name in names:
        if name not in got_row:
            raise Mismatch(f"{where}: field {name!r} missing")
        _close(got_row[name], want_row[name], f"{where}.{name}", **tol)


def _rows(doc, label=None):
    for sec in doc["sections"]:
        if sec["label"] == label:
            return sec["rows"]
    raise Mismatch(f"section {label!r} missing")


def check_estimate(text, ref):
    doc = json.loads(text)
    meta = doc["metadata"]
    _fields(meta, ref["metadata"], ("n", "events", "max_observed_fraction"), "metadata")
    _close(meta["band_coefficient"], ref["metadata"]["band_coefficient"],
           "metadata.band_coefficient", rel=BAND_REL_TOL, abs_=BAND_ABS_TOL)
    if meta["lambdas"] != ref["metadata"]["lambdas"]:
        raise Mismatch(f"lambdas {meta['lambdas']} != {ref['metadata']['lambdas']}")
    rows = _rows(doc)
    if len(rows) != len(ref["rows"]):
        raise Mismatch("estimate row count")
    for got, want in zip(rows, ref["rows"]):
        where = f"estimate.k{want['k']}"
        _fields(got, want, ("k", "lambda", "mu", "mu_bar", "upper_finite",
                            "computable", "events"), where)
        _fields(got, want, ("lower", "upper"), where, rel=BAND_REL_TOL, abs_=BAND_ABS_TOL)


def check_km_curve(text, ref):
    sections, label, reader_lines = {}, None, []
    for line in text.splitlines():
        if line.startswith("# section: "):
            if label is not None:
                sections[label] = reader_lines
            label, reader_lines = line[len("# section: "):], []
        else:
            reader_lines.append(line)
    sections[label] = reader_lines
    if list(sections) != list(ref):
        raise Mismatch(f"km-curve sections {list(sections)} != {list(ref)}")
    for label, lines in sections.items():
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        want_rows = ref[label]
        if len(rows) != len(want_rows):
            raise Mismatch(f"km-curve {label}: {len(rows)} rows, expected {len(want_rows)}")
        for i, (got, want) in enumerate(zip(rows, want_rows)):
            where = f"km-curve.{label}[{i}]"
            parsed = {
                "time": float(got["time"]), "survival": float(got["survival"]),
                "at_risk": int(got["at_risk"]), "events": int(got["events"]),
                "greenwood": float(got["greenwood"]),
                "lower": float(got["lower"]) if got["lower"] != "" else None,
                "upper": float(got["upper"]) if got["upper"] != "" else None,
            }
            _fields(parsed, want, ("time", "survival", "at_risk", "events", "greenwood"), where)
            _fields(parsed, want, ("lower", "upper"), where, rel=BAND_REL_TOL, abs_=BAND_ABS_TOL)


def _check_boot(got, want, B, where):
    _close(got["diff"], want["diff"], f"{where}.diff")
    eff = got["effective_replicates"]
    if abs(eff - want["effective_replicates"]) > max(1, EFF_SLACK_SHARE * B):
        raise Mismatch(f"{where}.effective_replicates {eff} vs {want['effective_replicates']}")
    if got["unreliable"] != (eff < BOOT_FLOOR_SHARE * B):
        raise Mismatch(f"{where}.unreliable inconsistent with {eff} replicates")
    ordered = want["ordered"]
    if not ordered:
        _close(got["ci_lower"], None, f"{where}.ci_lower")
        _close(got["ci_upper"], None, f"{where}.ci_upper")
        return
    for name, rank in zip(("ci_lower", "ci_upper"), want["ranks"]):
        value = _num(got[name])
        lo = ordered[max(0, rank - 1 - CI_NEIGHBOURS)]
        hi = ordered[min(len(ordered) - 1, rank - 1 + CI_NEIGHBOURS)]
        slack = ABS_TOL + REL_TOL * max(abs(lo), abs(hi))
        if not isinstance(value, float) or not lo - slack <= value <= hi + slack:
            raise Mismatch(f"{where}.{name} {value!r} outside order statistics "
                           f"[{lo!r}, {hi!r}] around rank {rank}")


def check_compare(text, ref):
    doc = json.loads(text)
    meta, want_meta = doc["metadata"], ref["metadata"]
    _close(meta["common_max_fraction"], want_meta["common_max_fraction"], "common_max_fraction")
    _close(meta["restricted_mean_horizon"], want_meta["restricted_mean_horizon"], "horizon")
    if meta["lambdas"] != want_meta["lambdas"] or meta["group_sizes"] != want_meta["group_sizes"]:
        raise Mismatch("compare grid or group sizes")
    rows = _rows(doc, "fraction_mean_differences")
    if len(rows) != len(ref["rows"]):
        raise Mismatch("compare row count")
    B = want_meta["bootstrap"]
    for got, want in zip(rows, ref["rows"]):
        _close(got["lambda"], want["lambda"], f"compare.k{want['k']}.lambda")
        _check_boot(got, want, B, f"compare.k{want['k']}")
    (rm,) = _rows(doc, "restricted_mean_difference")
    _close(rm["horizon"], want_meta["restricted_mean_horizon"], "restricted.horizon")
    _check_boot(rm, ref["restricted"], B, "restricted")


def check_simulate(text, ref):
    doc = json.loads(text)
    meta = doc["metadata"]
    _fields(meta, ref["metadata"], ("n_datasets", "n", "seed", "censoring_rate",
                                    "band_undefined_count"), "metadata")
    rows = _rows(doc)
    if len(rows) != len(ref["rows"]):
        raise Mismatch("simulate row count")
    for got, want in zip(rows, ref["rows"]):
        where = f"simulate.k{want['k']}"
        _fields(got, want, ("k", "lambda", "mean_estimate", "computable_share",
                            "mean_events"), where)
        _close(got["true_mu"], want["true_mu"], f"{where}.true_mu", rel=1e-7, abs_=1e-8)
        _fields(got, want, ("mean_lower", "mean_upper", "finite_upper_share"), where,
                rel=BAND_REL_TOL, abs_=BAND_ABS_TOL)


CHECKS = {
    "estimate": check_estimate,
    "km-curve": check_km_curve,
    "compare": check_compare,
    "simulate": check_simulate,
}


def check(command: str, text: str, ref) -> str | None:
    """Return None when ``text`` matches the reference, else the reason."""
    try:
        CHECKS[command](text, ref)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable {command} output: {type(exc).__name__}: {exc}"
    return None
