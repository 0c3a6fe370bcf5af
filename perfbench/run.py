"""survfrac benchmark: three CLI workloads, end-to-end metrics, per-layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare-boot --seed 1 --seconds 38 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload with tracing
off; ``--trace 1`` makes one traced session of every workload and reports the
per-layer metrics (see README.md).  The program under test is imported from
the checkout's ``src/``; it only ever sees the generated input files.  Human-
readable lines come first; the last line of stdout is one JSON object.
Every file the benchmark writes goes under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("compare-boot", "simulate-study", "registry-large")
BOOT_B = 2000
# Units of work per session, for work_per_s.
UNITS = {
    "compare-boot": ("bootstrap replicates", BOOT_B),
    "simulate-study": ("simulated datasets", gen.SIM_DESIGN["n_datasets"]),
    "registry-large": ("input rows read", 2 * 2 * gen.REG_ROWS_PER_ARM),
}
# An untraced run repeats rounds (a fresh import, a CLI session, an in-process
# session) for --seconds, and makes at least MIN_ROUNDS of them.
MIN_ROUNDS = 3
COMMAND_TIMEOUT_S = 90
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ------------------------------------------------------------------ sessions

def sessions(workload: str, files: dict, parallel: bool = True) -> list[list[str]]:
    """The CLI commands of one session of ``workload``, paths relative to the root."""
    if workload == "compare-boot":
        return [["compare", "--input", files["csv"], "--group-col", "arm", "--ref-group", "A",
                 "--bootstrap", str(BOOT_B), "--restricted-mean", "--format", "json"]]
    if workload == "simulate-study":
        return [["simulate", "--config", files["config"], "--workers", "2" if parallel else "1",
                 "--format", "json"]]
    return [["estimate", "--input", files["csv"], "--format", "json"],
            ["km-curve", "--input", files["csv"], "--group-col", "arm",
             "--band-level", "0.95", "--format", "csv"]]


def references(workload: str, info: dict):
    """Oracle reference for each command of the session, in order."""
    files = info["files"]
    if workload == "compare-boot":
        return [oracle.ref_compare(files["csv"], "A", BOOT_B, 0.95, 0)]
    if workload == "simulate-study":
        return [oracle.ref_simulate(info["inputs"][0]["design"])]
    return [oracle.ref_estimate(files["csv"]), oracle.ref_km_curve(files["csv"])]


class Checker:
    """Counts operations and failures; an output fails unless it matches the
    oracle (the first time it is seen) and is byte-identical to every earlier
    output of the same command (the determinism contract)."""

    def __init__(self, refs, session):
        self.refs = refs
        self.commands = [argv[0] for argv in session]
        self.first_digest: list[str | None] = [None] * len(session)
        self.first_text: list[str | None] = [None] * len(session)
        self.attempted = 0
        self.failures: list[str] = []

    def output(self, index: int, status, digest: str, read_text, where: str):
        self.attempted += 1
        if status != 0:
            self.failures.append(f"{where}: exit status {status}")
            return
        if self.first_digest[index] is None:
            if read_text is None:
                self.failures.append(f"{where}: no earlier output passed the check "
                                     "and this one was not kept")
                return
            text = read_text()
            reason = oracle.check(self.commands[index], text, self.refs[index])
            if reason:
                self.failures.append(f"{where}: {reason}")
                return
            self.first_digest[index] = digest
            self.first_text[index] = text
        elif digest != self.first_digest[index]:
            self.failures.append(f"{where}: output differs from the first run of "
                                 f"{self.commands[index]} with the same inputs")

    def self_check(self) -> str | None:
        """Feed a corrupted copy of the first output that passed to a fresh
        checker: it must be counted as failed.  Returns a problem, or None."""
        passed = [(i, text) for i, text in enumerate(self.first_text) if text is not None]
        if not passed:
            return None  # every output already failed
        index, text = passed[0]
        last = list(re.finditer(r"-?\d+\.\d+(?:e-?\d+)?", text))[-1]
        corrupted = text[:last.start()] + repr(float(last[0]) * 1.25 + 0.5) + text[last.end():]
        probe = Checker(self.refs, [[c] for c in self.commands])
        probe.output(index, 0, "corrupted", lambda: corrupted, "self-check")
        return None if probe.failures else f"a corrupted {self.commands[index]} output was accepted"


# ----------------------------------------------------------- process timing

def spawn(argv, env, out_path: Path | None, timeout=COMMAND_TIMEOUT_S):
    """Run ``argv`` to completion: (exit status, wall s, max RSS MiB, stderr).

    Wall time runs from spawn to exit; max RSS comes from wait4, which
    covers the process and every child it waited for (pool workers).
    """
    out = open(out_path, "wb") if out_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.PIPE)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            err = proc.stderr.read()
            _, wstatus, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
        proc.stderr.close()
    finally:
        if out_path:
            out.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, err.decode("utf-8", "replace")


def python_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_traced(spec: dict, work: Path, env, timeout: float) -> dict:
    spec_path, result_path = work / "trace.spec.json", work / "trace.result.json"
    spec_path.write_text(json.dumps(spec))
    here = Path(__file__).resolve().parent
    status, _, _, err = spawn([sys.executable, str(here / "inproc.py"), "trace", str(spec_path),
                               str(result_path)], env, None, timeout=timeout)
    if status != 0:
        raise RuntimeError(f"in-process runner exited {status}: {err.strip()[-2000:]}")
    return json.loads(result_path.read_text())


# ------------------------------------------------------------------- metrics

def quantile_summary(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = float(np.percentile(values, pct))
            break
    return out


def parse_importtime(text: str) -> dict:
    """scipy's own import time and survfrac's cumulative import time, in s."""
    scipy_us = survfrac_us = 0
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, indent, name = int(m[1]), int(m[2]), len(m[3]), m[4]
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
        if indent == 1 and name.startswith("survfrac"):
            survfrac_us += cum_us
    return {"scipy": scipy_us / 1e6, "survfrac": survfrac_us / 1e6}


def cpu_pressure() -> str | None:
    """The machine's CPU pressure line (PSI), where the kernel exposes it."""
    try:
        return Path("/proc/pressure/cpu").read_text().splitlines()[0]
    except (OSError, IndexError):
        return None


def environment(root: Path, load_start, pressure_start) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version"),
                "openblas_configuration": dep.get("openblas configuration")}
    except (TypeError, AttributeError, KeyError):
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    try:
        nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        nproc = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "cpu_pressure_start": pressure_start,
        "cpu_pressure_end": cpu_pressure(),
        "platform": platform.platform(),
    }


# -------------------------------------------------------------- untraced run

class InProcess:
    """One long-lived interpreter running sessions on request (inproc.py serve)."""

    def __init__(self, work: Path, env):
        here = Path(__file__).resolve().parent
        self.proc = subprocess.Popen([sys.executable, str(here / "inproc.py"), "serve", str(work)],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def session(self, session, tag=None) -> dict:
        self.proc.stdin.write(json.dumps({"session": session, "tag": tag}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"in-process runner exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure(workload, info, work, env, seconds, checker) -> dict:
    """Rounds until ``seconds`` have passed: each round times a fresh import,
    one CLI session in fresh processes and one in-process session, so every
    metric samples the whole run window."""
    session = sessions(workload, info["files"])
    samples = {"setup_s": [], "cli_s": [], "peak_rss_mib": [], "work_per_s": []}
    units = UNITS[workload][1]
    runner = InProcess(work, env)
    try:
        # untimed warm-up of the in-process runner; its outputs are checked too
        warm = runner.session(session, tag="warmup")
        for j, cmd in enumerate(warm["commands"]):
            checker.output(j, cmd["status"], cmd["sha256"],
                           lambda: (work / cmd["output"]).read_text(encoding="utf-8"),
                           f"in-process warm-up {session[j][0]}")
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            status, wall, _, err = spawn([sys.executable, "-c", "import survfrac.cli"], env, None)
            if status != 0:
                raise RuntimeError(f"import survfrac.cli failed: {err.strip()[-2000:]}")
            samples["setup_s"].append(wall)

            total = 0.0
            for j, argv in enumerate(session):
                out_path = work / f"cli-{rounds}-{j}.out"
                status, wall, peak, _ = spawn([sys.executable, "-m", "survfrac.cli", *argv],
                                              env, out_path)
                total += wall
                samples["peak_rss_mib"].append(peak)
                data = out_path.read_bytes()
                checker.output(j, status, hashlib.sha256(data).hexdigest(),
                               lambda: data.decode("utf-8"), f"cli round {rounds} {argv[0]}")
                out_path.unlink()
            samples["cli_s"].append(total)

            result = runner.session(session)
            for j, cmd in enumerate(result["commands"]):
                checker.output(j, cmd["status"], cmd["sha256"], None,
                               f"in-process round {rounds} {session[j][0]}")
            samples["work_per_s"].append(units / result["wall_s"])
            rounds += 1
    finally:
        runner.close()
    return samples


def end_to_end(workload, samples, checker) -> tuple[dict, list[str]]:
    values, lines = {}, []
    rss = samples["peak_rss_mib"]
    rows = [("cli_s", "median", quantile_summary(samples["cli_s"]), "s per session"),
            ("setup_s", "median", quantile_summary(samples["setup_s"]), "s per import"),
            ("work_per_s", "median", quantile_summary(samples["work_per_s"]),
             UNITS[workload][0] + " per s"),
            ("peak_rss_mib", "max", {"median": max(rss), "n": len(rss)}, "MiB")]
    for name, label, summ, unit in rows:
        values[name] = summ["median"]
        tail = "".join(f"  {k}={v:.6g}" for k, v in summ.items() if k not in ("median", "n"))
        lines.append(f"  {name:<13} {label:<6} {summ['median']:<12.6g} n={summ['n']:<3} {unit}{tail}")
    rate = len(checker.failures) / checker.attempted
    lines.append(f"  {'error_rate':<13} {'value':<6} {rate:<12.6g} n={checker.attempted:<3} "
                 "failed operations / attempted")
    return values, lines


# ---------------------------------------------------------------- traced run

def self_times(spans):
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def ancestors(spans, i):
    parent = spans[i][3]
    while parent >= 0:
        yield parent
        parent = spans[parent][3]


def layer_metrics(traced: dict, docs: dict, importtime: dict) -> dict:
    """Per-layer metrics, each read from the workload the layer serves."""
    m = {}
    by_w = {w: traced[w]["spans"] for w in traced}
    selfs = {w: self_times(s) for w, s in by_w.items()}

    def pick(w, name):
        return [i for i, s in enumerate(by_w[w]) if s[0] == name]

    def dur(w, idx):
        return [by_w[w][i][2] - by_w[w][i][1] for i in idx]

    def self_sum(w, idx):
        return sum(selfs[w][i] for i in idx)

    def us_per_call(w, idx):
        # 0 when the layer is not called at all, e.g. after a batched rewrite
        return 1e6 * statistics.mean(dur(w, idx)) if idx else 0.0

    m["setup.scipy_import_s"] = importtime["scipy"]
    m["setup.survfrac_import_s"] = importtime["survfrac"]

    # registry-large: ingestion, the large fits, rendering, the handlers.
    w = "registry-large"
    parse = pick(w, "dataset.parse_csv")
    m["dataset.parse_csv.self_s"] = self_sum(w, parse)
    m["dataset.parse_csv.rows_per_s"] = sum(by_w[w][i][4] for i in parse) / sum(dur(w, parse))
    m["dataset.split_by_group.self_s"] = self_sum(w, pick(w, "dataset.split_by_group"))
    fits = pick(w, "km.fit_km")
    m["km.fit_km.self_s"] = self_sum(w, fits)
    # the estimate command fits the pooled sample first, km-curve then each arm
    pooled, arms = fits[0], fits[1:]
    t_arm = statistics.mean(dur(w, arms))
    n_arm = statistics.mean(by_w[w][i][4][1] for i in arms)
    m["km.fit_km.n_exponent"] = (math.log(dur(w, [pooled])[0] / t_arm)
                                 / math.log(by_w[w][pooled][4][1] / n_arm))
    renders = pick(w, "output.render")
    m["output.render.self_s"] = self_sum(w, renders)
    m["output.bytes"] = sum(by_w[w][i][4] for i in renders)
    m["cli.self_s"] = sum(selfs[w][i] for i, s in enumerate(by_w[w]) if s[0].startswith("cli.cmd_"))

    # compare-boot: the replicate engine.
    w = "compare-boot"
    fits = pick(w, "km.fit_km")
    m["km.fit_km.calls"] = len(fits)
    m["km.fit_km.us_per_call"] = us_per_call(w, fits)
    fms = pick(w, "fracmean.fraction_means")
    m["fracmean.fraction_means.calls"] = len(fms)
    m["fracmean.fraction_means.us_per_call"] = us_per_call(w, fms)
    m["fracmean.restricted_mean.calls"] = len(pick(w, "fracmean.restricted_mean"))
    boots = [i for i, s in enumerate(by_w[w]) if s[0].startswith("inference.bootstrap")]
    m["inference.bootstrap.self_s"] = self_sum(w, boots)
    replicate_fits = 0
    for i in fits:
        for a in ancestors(by_w[w], i):
            if a in boots:
                replicate_fits += by_w[w][i][4][0] not in by_w[w][a][4][:2]
                break
    # per requested replicate, over both passes of --restricted-mean
    m["inference.fits_per_replicate"] = replicate_fits / by_w[w][boots[0]][4][2]
    doc = json.loads(docs["compare-boot"][0])
    effective = [row["effective_replicates"] for sec in doc["sections"] for row in sec["rows"]]
    m["inference.kept_share"] = min(effective) / doc["metadata"]["bootstrap"]

    # simulate-study: generation, bands, bounds, the pool.
    w = "simulate-study"
    m["km.ep_band.calls"] = len(pick(w, "km.ep_band"))
    m["km.ep_band.us_per_call"] = us_per_call(w, pick(w, "km.ep_band"))
    m["fracmean.fraction_mean_bounds.us_per_call"] = us_per_call(
        w, pick(w, "fracmean.fraction_mean_bounds"))
    m["sim.generate_replicate.us_per_call"] = us_per_call(w, pick(w, "sim.generate_replicate"))
    m["sim.run_study.self_s"] = self_sum(w, pick(w, "sim.run_study"))
    m["sim.workers2_speedup"] = statistics.median(
        s["wall_s"] / p["wall_s"] for s, p in zip(traced[w]["untraced"], traced[w]["parallel"]))
    doc = json.loads(docs["simulate-study"][0])
    meta = doc["metadata"]
    m["sim.band_defined_share"] = 1.0 - meta["band_undefined_count"] / meta["n_datasets"]

    for w in traced:
        m[f"trace.overhead.{w}"] = traced[w]["traced"]["wall_s"] / statistics.median(
            r["wall_s"] for r in traced[w]["untraced"])
    return m


LAYER_NOTES = {
    "setup.": "all workloads: setup_s, cli_s",
    "dataset.": "registry-large: work_per_s, cli_s",
    "km.fit_km.calls": "compare-boot: work_per_s",
    "km.fit_km.us_per_call": "compare-boot: work_per_s",
    "km.fit_km.": "registry-large: work_per_s, cli_s",
    "km.ep_band": "simulate-study: work_per_s",
    "fracmean.fraction_mean_bounds": "simulate-study: work_per_s",
    "fracmean.": "compare-boot: work_per_s",
    "inference.": "compare-boot: work_per_s",
    "sim.": "simulate-study: work_per_s",
    "output.": "registry-large: work_per_s, cli_s",
    "cli.": "registry-large: work_per_s, cli_s",
    "trace.overhead": "traced / untraced session wall (tracing cost)",
}


def layer_note(name):
    return next(v for k, v in LAYER_NOTES.items() if name.startswith(k))


def traced_run(first, work, env, checkers, infos) -> tuple[dict, list[str]]:
    order = [first] + [w for w in WORKLOADS if w != first]
    items = []
    for w in order:
        files = infos[w]["files"]
        item = {"name": w, "session": sessions(w, files, parallel=False)}
        if w == "simulate-study":
            # spans recorded inside pool workers would be lost: trace serially
            item["parallel_session"] = sessions(w, files, parallel=True)
        items.append(item)

    imports = []
    for _ in range(3):
        status, _, _, err = spawn([sys.executable, "-X", "importtime", "-c",
                                   "import survfrac.cli"], env, None)
        if status != 0:
            raise RuntimeError(f"import survfrac.cli failed: {err.strip()[-2000:]}")
        imports.append(parse_importtime(err))
    importtime = {k: statistics.median(d[k] for d in imports) for k in ("scipy", "survfrac")}

    traced = run_traced({"workloads": items}, work, env, timeout=170)
    docs = {}
    for item in items:
        w, t = item["name"], traced[item["name"]]
        # The traced serial output is checked against the oracle first; the
        # warm-up, untraced and --workers 2 outputs must be byte-identical to it.
        runs = [("traced", t["traced"]), ("warm-up", t["warmup"])]
        runs += [("untraced", r) for r in t["untraced"]]
        runs += [("--workers 2", r) for r in t["parallel"]]
        for label, run in runs:
            for j, cmd in enumerate(run["commands"]):
                path = work / cmd["output"] if "output" in cmd else None
                checkers[w].output(j, cmd["status"], cmd["sha256"],
                                   lambda: path.read_text(encoding="utf-8"),
                                   f"{label} {item['session'][j][0]}")
        docs[w] = checkers[w].first_text
    metrics = layer_metrics(traced, docs, importtime)
    lines = [f"  {k:<44} {v:<14.6g} {layer_note(k)}" for k, v in metrics.items()]
    return metrics, lines


# ------------------------------------------------------------------------ main

def declared_units(root: Path, kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def with_units(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           "both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "survfrac" / "cli.py").is_file():
        print(f"perfbench: no survfrac sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    load_start, pressure_start = list(os.getloadavg()), cpu_pressure()
    # One fixed directory, so that the input paths echoed in the outputs, and
    # with them the output bytes, do not depend on the workload or mode.
    work = root / ".bench_work" / "run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = python_env(root)

    def prepare(w):
        info = gen.generate(w, args.seed, work / "inputs")
        info["files"] = {k: str(Path(v).relative_to(root)) for k, v in info["files"].items()}
        return info, Checker(references(w, info), sessions(w, info["files"]))

    targets = WORKLOADS if args.trace else (args.workload,)
    extra_record = {}
    infos, checkers = {}, {}
    for w in targets:
        infos[w], checkers[w] = prepare(w)

    if args.trace:
        values, lines = traced_run(args.workload, work, env, checkers, infos)
        metrics = with_units(values, declared_units(root, "per_layer"))
        header = "per-layer metrics (one traced session per workload)"
    else:
        samples = measure(args.workload, infos[args.workload], work, env,
                          args.seconds, checkers[args.workload])
        values, lines = end_to_end(args.workload, samples, checkers[args.workload])
        metrics = with_units(values, declared_units(root, "end_to_end"))
        extra_record["samples"] = samples
        header = "end-to-end metrics (tracing off)"

    problems = [f"{w}: {f}" for w in targets for f in checkers[w].failures]
    attempted = sum(c.attempted for c in checkers.values())
    failed = len(problems)
    for w in targets:
        broken = checkers[w].self_check()
        if broken:
            print(f"perfbench: checker self-check failed on {w}: {broken}", file=sys.stderr)
            return 3

    env_record = environment(root, load_start, pressure_start)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": {w: infos[w]["inputs"] for w in targets},
              "environment": env_record, "metrics": metrics,
              "attempted": attempted, "failed": failed, "failures": problems[:50],
              **extra_record}
    (root / ".bench_work" / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"survfrac benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for w in targets:
        for inp in infos[w]["inputs"]:
            print(f"input {w}: {inp['file']} rows={inp['rows']} "
                  f"censoring_share={inp['censoring_share']:.4f} "
                  f"distinct_time_share={inp['distinct_time_share']:.4f}")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    print(header)
    for line in lines:
        print(line)
    print(f"correctness: {attempted - failed}/{attempted} operations passed; "
          "self-check: a corrupted output is counted as failed")
    for p in problems[:10]:
        print(f"  FAILED {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
