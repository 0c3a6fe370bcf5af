"""Runs CLI sessions inside one interpreter: timed loops and traced runs.

Usage:
    python3 perfbench/inproc.py serve OUT_DIR
    python3 perfbench/inproc.py trace SPEC.json RESULT.json

It imports ``survfrac`` from ``PYTHONPATH`` (the checkout's ``src``) and calls
``survfrac.cli.main(argv)`` with stdout captured, so no process start-up is
timed.

``serve`` reads one JSON request per stdin line, ``{"session": [argv, ...],
"tag": name or null}``, runs the session and answers with one JSON line.  The
caller sends the next request only after reading the answer.

``trace`` runs, per workload in SPEC's ``workloads`` list, the sessions that
``trace_workload`` describes; spans are kept in memory and written out with
the result.

A session result records its wall time and, per command, the exit status and
the sha256 of the output; outputs are kept as files in the output directory
when a tag is given.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import sys
import time
from pathlib import Path

import survfrac.cli as cli

# Modules whose imported names are wrapped: the modules bind ``from .km import
# fit_km``, so the calls must be intercepted where the name is looked up.
TRACE_SITES = ("survfrac.cli", "survfrac.inference", "survfrac.sim")
PAIRS = 3


class Recorder:
    """In-memory spans: [name, start, end, parent index, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, module, attr, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            spans[idx][4] = _tag(name, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def install(self):
        for site in TRACE_SITES:
            module = sys.modules[site]
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__.startswith("survfrac.")):
                    layer = fn.__module__.rsplit(".", 1)[-1]
                    self._wrap(module, attr, fn, f"{layer}.{fn.__name__}")

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def _tag(name, args, kwargs, result):
    """A small per-call record the layer metrics need."""
    if name == "km.fit_km":
        return [id(args[0]), len(result)]
    if name.startswith("inference.bootstrap"):
        return [id(args[0]), id(args[1]), kwargs.get("B")]
    if name == "dataset.parse_csv":
        return len(result)
    if name == "output.render":
        return len(result.encode("utf-8"))
    return None


def run_command(argv):
    """Run one CLI command in-process: (exit status or error, output text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(list(argv))
    except SystemExit as exc:
        status = f"SystemExit({exc.code})"
    except Exception as exc:  # a failed operation is counted, not fatal
        status = f"{type(exc).__name__}: {exc}"
    return status, buf.getvalue()


def run_session(session, out_dir: Path | None, tag: str | None):
    """Run the commands in order; keep outputs only when ``out_dir`` is set."""
    records = []
    t0 = time.perf_counter()
    outputs = [run_command(argv) for argv in session]
    wall = time.perf_counter() - t0
    for i, (status, text) in enumerate(outputs):
        record = {"status": status, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        if out_dir is not None:
            path = out_dir / f"{tag}-{i}.out"
            path.write_text(text, encoding="utf-8")
            record["output"] = path.name
        records.append(record)
    return {"wall_s": wall, "commands": records}


def serve(out_dir: Path):
    answers = sys.stdout
    for line in sys.stdin:
        request = json.loads(line)
        tag = request.get("tag")
        result = run_session(request["session"], out_dir if tag else None, tag)
        answers.write(json.dumps(result) + "\n")
        answers.flush()


def trace_workload(item, out_dir: Path):
    """A warm-up session, untraced sessions, then one traced session.

    With a ``parallel_session`` (the study), the untraced serial session and
    the parallel one alternate ``PAIRS`` times, so that their wall-time
    ratio is a median over neighbouring pairs.
    """
    name = item["name"]
    parallel = item.get("parallel_session")
    out = {"warmup": run_session(item["session"], None, None),
           "untraced": [], "parallel": []}
    for k in range(PAIRS if parallel else 1):
        out["untraced"].append(run_session(item["session"], None, None))
        if parallel:
            out["parallel"].append(run_session(parallel, out_dir if k == 0 else None,
                                               f"{name}-parallel"))
    rec = Recorder()
    rec.install()
    try:
        out["traced"] = run_session(item["session"], out_dir, f"{name}-traced")
    finally:
        rec.uninstall()
    out["spans"] = rec.spans
    return out


def main():
    if sys.argv[1] == "serve":
        serve(Path(sys.argv[2]))
        return
    spec = json.loads(Path(sys.argv[2]).read_text())
    result_path = Path(sys.argv[3])
    result = {item["name"]: trace_workload(item, result_path.parent)
              for item in spec["workloads"]}
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
