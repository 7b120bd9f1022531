"""Cover benchmark: end-to-end CLI cover ops on seeded generated forests.

    python3 perfbench/run.py --workload merge --seed 1 --seconds 30 --trace 0

Run from a plain checkout (no install): ``treecover`` is imported from the
checkout's ``src`` through an absolute PYTHONPATH. One op is the in-process
call ``treecover.cli.main(["cover", "--phi", P, ...])`` on one generated
instance: parse, validate, engine, ``Cover.to_json``, write. A closed loop
with one client alternates hull ops and box ops for ``--seconds`` seconds in
a child process (loop.py), so ``peak_rss_mb`` is that process's alone.
Every op's cover file must equal, byte for byte, the canonical cover of
``naive_phi_cover`` on the same input; that reference is computed before
the loop starts and cached under perfbench/out/cache by input digest.

``--trace 0`` prints the end-to-end metrics. Their times are rescaled to
the reference speed of a machine-speed probe timed next to each op and each
import (calibrate.py), because the host's speed swings by ~1.4x for minutes
at a time; the wall-clock values are kept in the metadata as
``raw_metrics``. ``--trace 1`` runs every op
untraced and then traced (tracing.py) and prints the per-layer metrics.
The last stdout line is the result JSON; the line before it holds the run's
metadata. Both are also written to perfbench/out/<run>/result.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import calibrate
import gen
from tracing import read_spans, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

VERTICES_PER_TREE = 5
INSTANCES_PER_PHI = 3
# Fixed, so every commit is compared on the same statistic; a run of 30 s
# holds about 40-60 ops of each phi; 40 leave 10 beyond it.
TAIL_PERCENTILE = 75

# Tree counts put a hull op at ~0.3 s and a box op at ~0.1-0.2 s with the
# pure-Python kernel, so a run holds dozens of ops of each phi.
WORKLOADS = {
    "merge": {
        "hull_m": 200,
        "box_m": 1500,
        "why": "interlocking comb teeth collapse to one region through m-1 merges: "
        "shoot-and-merge, ray inserts, hull merge and box absorb do the work; "
        "extraction and the validator sweep idle",
    },
    "disjoint": {
        "hull_m": 150,
        "box_m": 700,
        "why": "x-monotone paths in separate strips, zero merges: shots read a static "
        "store, the box index only inserts and queries, extraction does k^2 "
        "containment tests; merge code idles",
    },
    "ladder": {
        "hull_m": 125,
        "box_m": 350,
        "why": "rungs ~10^6 wide stacked in y share x and all overlap in x: every "
        "segment stays active in the validator's x-sweep; zero merges, so shots read "
        "a static store and extraction does k^2 tests",
    },
}

END_TO_END = {
    # Times are at the probe's reference speed (calibrate.py).
    "hull_vps": ("vertex/s", "input vertices covered per second over all hull ops"),
    "box_vps": ("vertex/s", "input vertices covered per second over all box ops"),
    "hull_op_s.p50": ("s", "median hull-op latency"),
    "hull_op_s.tail": ("s", f"p{TAIL_PERCENTILE} hull-op latency"),
    "box_op_s.p50": ("s", "median box-op latency"),
    "box_op_s.tail": ("s", f"p{TAIL_PERCENTILE} box-op latency"),
    "setup_s": ("s", "median time for a fresh interpreter to import treecover.cli"),
    "peak_rss_mb": ("MB", "peak resident memory of the loop process"),
}

# Per-layer metric -> (unit, which end-to-end metric it should move, where).
# Times and counts are means per traced op of the phi named in the metric
# (model.*, kernel.find_* and cli.* average over ops of both phis).
PER_LAYER = {
    "hull.shoot_s": ("s", "hull_* on all workloads; box_* never"),
    "hull.shots": ("count", "hull_* on all workloads"),
    "hull.scan_obstacles": ("count", "hull_* on all workloads"),
    "hull.merge_yield": ("ratio", "hull_* on merge"),
    "hull.merge_s": ("s", "hull_* on merge; nothing on disjoint or ladder"),
    "hull.merges": ("count", "hull_* on merge; 0 on disjoint and ladder"),
    "hull.extract_s": ("s", "hull_* on disjoint and ladder; ~0 on merge"),
    "hull.extract_tests": ("count", "hull_* on disjoint and ladder"),
    "hull.regions_in": ("count", "hull_* on disjoint and ladder"),
    "hull.engine_self_s": ("s", "hull_* on all workloads"),
    "hull.obstacles_final": ("count", "hull_* and peak_rss_mb on merge"),
    "box.query_s": ("s", "box_* on disjoint and ladder; ~0 on merge"),
    "box.queries": ("count", "box_* on disjoint and ladder"),
    "box.query_yield": ("ratio", "box_* on merge"),
    "box.index_writes": ("count", "box_* on all workloads"),
    "box.extract_s": ("s", "box_* on disjoint and ladder; ~0 on merge"),
    "box.boxes_in": ("count", "box_* on disjoint and ladder"),
    "box.engine_self_s": ("s", "box_* on all workloads"),
    "model.parse_s": ("s", "small everywhere, growing with region count"),
    "model.validate_s": ("s", "box_* on ladder"),
    "model.cover_out_s": ("s", "small everywhere, growing with region count"),
    "kernel.scan_s": ("s", "follows hull.shoot_s"),
    "kernel.find_contacts_s": ("s", "follows model.validate_s: box_* on ladder"),
    "kernel.find_contacts_pairs": ("count", "follows kernel.find_contacts_s"),
    "kernel.find_vertex_hits_s": ("s", "follows model.validate_s"),
    "cli.self_s": ("s", "all op latencies: argument parsing, file read and write"),
    "trace.overhead_frac": ("ratio", "none: traced / untraced op time - 1"),
    "trace.accounted_frac": ("ratio", "none: span tree time / traced op time, ~1"),
}


def instance_specs(workload: str, seed: int):
    """(phi, m, instance seed) for each instance, hull and box interleaved."""
    w = WORKLOADS[workload]
    return [
        (phi, w[f"{phi}_m"], f"{seed}/{i}")
        for i in range(INSTANCES_PER_PHI)
        for phi in ("hull", "box")
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "treecover").rglob("*")):
        if p.suffix in (".py", ".pyx") and p.is_file():
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference(text: str, phi: str, digest: str) -> bytes:
    """Canonical naive cover bytes, cached by source and input digest."""
    path = OUT / "cache" / f"{sha256(f'{digest}/{phi}/'.encode() + text.encode())}.json"
    if path.is_file():
        return path.read_bytes()
    from treecover.model import parse_instance
    from treecover.phicover import PHI, naive_phi_cover

    cover, _ = naive_phi_cover(parse_instance(text), PHI[phi])
    data = (cover.to_json() + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
    return data


def percentile(values, pct):
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def e2e_metrics(records, final_probe_s, peak_rss_kb, setup):
    """(rescaled, raw) end-to-end values. Rescaled times are at the probe's
    reference speed (calibrate.py): each op's seconds are scaled by the
    mean probe around it, and each import time by the probe timed in its
    own interpreter."""
    speeds = calibrate.local_speeds([r["probe_s"] for r in records] + [final_probe_s])
    scaled = [dict(r, s=calibrate.rescale(r["s"], v)) for r, v in zip(records, speeds)]

    def values(recs, setup_s):
        out = {}
        for phi in ("hull", "box"):
            ops = [r for r in recs if r["phi"] == phi and not r["warmup"]]
            secs = [r["s"] for r in ops]
            out[f"{phi}_vps"] = sum(r["n"] for r in ops) / sum(secs)
            out[f"{phi}_op_s.p50"] = statistics.median(secs)
            out[f"{phi}_op_s.tail"] = percentile(secs, TAIL_PERCENTILE)
        out["setup_s"] = statistics.median(setup_s)
        out["peak_rss_mb"] = peak_rss_kb / 1024
        return out

    return (
        values(scaled, [calibrate.rescale(d, p) for d, p in setup]),
        values(records, [d for d, _ in setup]),
    )


def layer_metrics(records, spans, op_counts):
    incl = defaultdict(lambda: defaultdict(int))
    own = defaultdict(lambda: defaultdict(int))
    for (name, t0, t1, _, op), st in zip(spans, self_times(spans)):
        incl[op][name] += t1 - t0
        own[op][name] += st
    traced = [i for i, r in enumerate(records) if r["traced"]]
    by_phi = {phi: [i for i in traced if records[i]["phi"] == phi] for phi in ("hull", "box")}

    def mean_s(table, names, ops):
        return sum(table[o][n] for o in ops for n in names) / len(ops) / 1e9

    def total(key, ops):
        return sum(op_counts[str(o)].get(key, 0) for o in ops)

    def mean_count(key, ops):
        return total(key, ops) / len(ops)

    hull, box = by_phi["hull"], by_phi["box"]
    untraced = sum(r["s"] for r in records if not r["traced"] and not r["warmup"])
    traced_s = sum(records[i]["s"] for i in traced)
    out = {
        "hull.shoot_s": mean_s(incl, ["hull.shoot"], hull),
        "hull.shots": mean_count("hull.shots", hull),
        "hull.scan_obstacles": mean_count("hull.scan_obstacles", hull),
        "hull.merge_yield": total("hull.merging_shots", hull) / max(1, total("hull.shots", hull)),
        "hull.merge_s": mean_s(incl, ["hull.merge"], hull),
        "hull.merges": mean_count("hull.merges", hull),
        "hull.extract_s": mean_s(incl, ["hull.extract"], hull),
        "hull.extract_tests": mean_count("hull.extract_tests", hull),
        "hull.regions_in": mean_count("hull.regions_in", hull),
        "hull.engine_self_s": mean_s(own, ["hull.engine"], hull),
        "hull.obstacles_final": mean_count("hull.obstacles_final", hull),
        "box.query_s": mean_s(incl, ["box.query"], box),
        "box.queries": mean_count("box.queries", box),
        "box.query_yield": total("box.query_hits", box) / max(1, total("box.queries", box)),
        "box.index_writes": mean_count("box.index_writes", box),
        "box.extract_s": mean_s(incl, ["box.extract"], box),
        "box.boxes_in": mean_count("box.boxes_in", box),
        "box.engine_self_s": mean_s(own, ["box.engine"], box),
        "model.parse_s": mean_s(incl, ["model.parse"], traced),
        "model.validate_s": mean_s(incl, ["model.validate"], traced),
        "model.cover_out_s": mean_s(incl, ["model.cover_build", "model.to_json"], traced),
        "kernel.scan_s": mean_s(incl, ["kernel.scan"], hull),
        "kernel.find_contacts_s": mean_s(incl, ["kernel.find_contacts"], traced),
        "kernel.find_contacts_pairs": mean_count("kernel.find_contacts_pairs", traced),
        "kernel.find_vertex_hits_s": mean_s(incl, ["kernel.find_vertex_hits"], traced),
        "cli.self_s": mean_s(own, ["cli.main"], traced),
        "trace.overhead_frac": traced_s / untraced - 1,
        "trace.accounted_frac": sum(sum(own[o].values()) for o in traced) / 1e9 / traced_s,
    }
    # Mean self time per span name and op, for reading where an op's time went.
    breakdown = {
        phi: {
            "op_s": sum(records[i]["s"] for i in ops) / len(ops),
            "self_s": {
                name: sum(own[o][name] for o in ops) / len(ops) / 1e9
                for name in sorted({n for o in ops for n in own[o]})
            },
        }
        for phi, ops in by_phi.items()
    }
    return out, breakdown


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "treecover" / "cli.py").is_file():
        print(f"error: no treecover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    digest = src_digest()
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    io = work / "io"
    io.mkdir(parents=True)

    ops, sizes, inputs = [], {}, []
    for k, (phi, m, iseed) in enumerate(instance_specs(args.workload, args.seed)):
        text = gen.instance_text(args.workload, m, VERTICES_PER_TREE, iseed)
        inp, ref = io / f"in-{k}.json", io / f"ref-{k}.json"
        inp.write_text(text, encoding="utf-8")
        ref.write_bytes(reference(text, phi, digest))
        n = m * VERTICES_PER_TREE
        ops.append({"phi": phi, "input": str(inp), "ref": str(ref), "n": n})
        sizes[phi] = {"m": m, "n": n}
        inputs.append({"phi": phi, "seed": iseed, "sha256": sha256(text.encode())})


    spec = {"ops": ops, "seconds": args.seconds, "trace": bool(args.trace), "work": str(io)}
    spec_path = io / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        subprocess.run(
            [sys.executable, str(HERE / "loop.py"), str(spec_path)],
            env=child_env(), cwd=ROOT, timeout=args.seconds + 120, check=True,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"error: loop process failed: {e}", file=sys.stderr)
        return 1
    loop = json.loads((io / "loop-result.json").read_text(encoding="utf-8"))
    records = loop["ops"]
    failed = sum(not r["ok"] for r in records)

    meta = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload]["why"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "src_sha256": digest,
        "python": platform.python_version(),
        "backend": loop["backend"],
        "nproc": os.cpu_count(),
        "load": "closed loop, 1 client, 1 thread; hull and box ops alternate",
        "vertices_per_tree": VERTICES_PER_TREE,
        "sizes": sizes,
        "inputs": inputs,
        "samples": {
            phi: sum(r["phi"] == phi and not r["warmup"] and not r["traced"] for r in records)
            for phi in ("hull", "box")
        },
        "tail_percentile": TAIL_PERCENTILE,
        "fail_frac": failed / len(records),
    }
    if args.trace:
        spans_path = io / "spans.jsonl"
        values, meta["breakdown"] = layer_metrics(records, read_spans(spans_path), loop["op_counts"])
        shutil.move(str(spans_path), str(work / "spans.jsonl"))
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        meta["should_move"] = {k: why for k, (_, why) in PER_LAYER.items()}
    else:
        setup = loop["setup"]
        meta["setup_samples_s"] = setup
        meta["reference_probe_s"] = calibrate.REFERENCE_S
        meta["probe_s.p50"] = statistics.median(
            [r["probe_s"] for r in records] + [loop["final_probe_s"]])
        values, meta["raw_metrics"] = e2e_metrics(
            records, loop["final_probe_s"], loop["peak_rss_kb"], setup)
        units = {k: u for k, (u, _) in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    (work / "loop-result.json").write_text(json.dumps(records), encoding="utf-8")
    (work / "result.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    shutil.rmtree(io)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
