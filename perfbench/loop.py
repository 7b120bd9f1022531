"""Closed-loop worker: one client, one thread, one op at a time.

Usage: python3 loop.py SPEC.json, with ``treecover``'s source directory on
PYTHONPATH. The spec (written by run.py) lists the ops to cycle through,
each an input file, a reference cover file and a phi. One op is the CLI
call ``treecover.cli.main(["cover", ...])``; its output file is compared
byte for byte with the reference after the op's clock has stopped.

The result file gets one record per op and the peak RSS of this process.
In untraced mode the machine-speed probe (calibrate.py) runs before every
op and once after the last, off the op's clock, and a set-up sample (the
import time of ``treecover.cli`` in a fresh interpreter) is taken after
every ``SETUP_EVERY``-th box op, so both spread over the whole run. In traced mode every op is run twice, first untraced and then traced, so
the tracing overhead is measured on matched pairs; spans go to a file.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback

from calibrate import probe
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_EVERY = 3  # hull-box pairs between set-up samples
SETUP_MIN = 8  # samples a run takes at least, after the loop if need be
SETUP_CODE = (
    "import sys, time; t = time.perf_counter(); import treecover.cli; "
    "d = time.perf_counter() - t; "
    f"sys.path.insert(0, {HERE!r}); from calibrate import probe; "
    "print(repr(d), repr(sum(probe() for _ in range(3)) / 3))"
)


def _read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def run_op(cli, op, out_path, stats_path, ref):
    """One timed CLI op; returns (seconds, ok, error text or None)."""
    for p in (out_path, stats_path):
        if os.path.exists(p):
            os.remove(p)
    argv = ["cover", "--phi", op["phi"], "--input", op["input"],
            "--output", out_path, "--stats", stats_path]
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit):  # an op failure, counted below
        rc = None
        error = traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    if rc != 0 and error is None:
        error = f"exit code {rc}"
    ok = error is None and os.path.exists(out_path) and _read_bytes(out_path) == ref
    if error is None and not ok:
        error = "cover differs from the reference"
    return dt, ok, error


def setup_sample():
    """(import seconds, probe seconds) in a fresh interpreter with the
    absolute ``src`` path on PYTHONPATH; the probe is the mean of three,
    timed in the same interpreter right after the import."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), cwd=os.path.dirname(HERE),
                          text=True, timeout=60, check=True)
    d, p = (float(v) for v in proc.stdout.split())
    return d, p


def main(spec_path):
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    from treecover import cli, kernel

    refs = [_read_bytes(op["ref"]) for op in spec["ops"]]
    work = spec["work"]
    outs = {phi: (os.path.join(work, f"out-{phi}.json"), os.path.join(work, f"stats-{phi}.json"))
            for phi in ("hull", "box")}
    tracer = Tracer() if spec["trace"] else None
    records, errors = [], []
    final_probe = None
    setup = []

    def one(i, warmup, traced):
        op = spec["ops"][i % len(spec["ops"])]
        op_id = len(records)
        # A CLI process starts each op with an empty collector; a full
        # collection off the clock keeps earlier ops' garbage and the
        # collector's schedule from moving this op's time and the peak RSS.
        gc.collect()
        probe_s = None if tracer is not None else probe()
        if traced:
            tracer.begin_op(op_id)
            tracer.install()
        try:
            dt, ok, error = run_op(cli, op, *outs[op["phi"]], refs[i % len(refs)])
        finally:
            if traced:
                tracer.uninstall()
        records.append({"phi": op["phi"], "n": op["n"], "s": dt, "ok": ok,
                        "warmup": warmup, "traced": traced, "probe_s": probe_s})
        if error is not None and len(errors) < 5:
            errors.append(f"op {op_id} ({op['phi']} {op['input']}): {error}")

    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        for i in range(2):  # one untimed op of each phi fills lazy caches
            one(i, warmup=True, traced=False)
        if tracer is None:
            setup_sample()  # discarded: it may compile bytecode
        deadline = time.perf_counter() + spec["seconds"]
        i = 0
        while i % 2 or time.perf_counter() < deadline:  # stop after a box op
            one(i, warmup=False, traced=False)
            if tracer is not None:
                one(i, warmup=False, traced=True)
            i += 1
            if tracer is None and i % (2 * SETUP_EVERY) == 0:
                setup.append(setup_sample())
        if tracer is None:
            final_probe = probe()
            while len(setup) < SETUP_MIN:
                setup.append(setup_sample())

    for e in errors:
        print(e, file=sys.stderr)
    result = {
        "backend": kernel.backend_name(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": records,
        "final_probe_s": final_probe,
        "setup": setup,
    }
    if tracer is not None:
        tracer.write_spans(os.path.join(work, "spans.jsonl"))
        result["op_counts"] = tracer.op_counts
    with open(os.path.join(work, "loop-result.json"), "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
