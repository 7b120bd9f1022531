"""The ``bench`` command: fast-engine cover times over a size ladder.

Each row times ``hull_cover_fast`` or ``box_cover_fast`` on one instance,
and its ``ops`` and ``merges`` are that engine's stats. The ``algo`` column
always reads ``fast``, so the CSV keeps the columns its readers expect.
``cli`` imports this module only to run ``bench``, so other commands do not
compile it.
"""

from __future__ import annotations

import statistics
import sys
import time

from .boxcover import box_cover_fast
from .cli import EXIT_OK, EXIT_USAGE, _write
from .hullcover import hull_cover_fast
from .model import GenerationError


def _bench_one(inst, phi_name: str):
    """One measured run of the fast engine; returns (wall_ms, ops, merges)."""
    t0 = time.perf_counter()
    if phi_name == "hull":
        _, stats = hull_cover_fast(inst)
        ops, merges = stats.rays_shot, stats.merges
    else:
        _, stats = box_cover_fast(inst)
        ops, merges = stats.queries, stats.merges
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return wall_ms, ops, merges


def _bench_instance(kind: str, n_target: int, seed: int):
    """The instance of ``kind`` with the most trees m >= 2 whose n is at most
    n_target (m = 2 when none is). Its n / m never falls as m grows, so an m
    that fits bounds the answer by n_target * m // n, a bound that fits
    whenever n / m is constant. From each m that fits, m doubles, or goes to
    that bound once it lies within a doubling; from an m that does not, the
    search bisects. An m above the kind's tree cap (``GenerationError``)
    does not fit."""
    from .generators import generate

    lo, best = 2, generate(kind, trees=2, size=5, seed=seed)
    hi = n_target * lo // best.n + 1  # no m >= hi fits
    mid = min(2 * lo, hi - 1)
    while hi - lo > 1:
        try:
            inst = generate(kind, trees=mid, size=5, seed=seed)
        except GenerationError:
            inst = None
        if inst is not None and inst.n <= n_target:
            lo, best = mid, inst
            hi = min(hi, n_target * mid // inst.n + 1)
            mid = min(2 * lo, hi - 1)
        else:
            hi = mid
            mid = (lo + hi) // 2
    return best


def run(args) -> int:
    """The ``bench`` command."""
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        print(
            f"error: --kinds must list at least one kind, got {args.kinds!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) <= 0:
        print(
            f"error: --sizes must list positive integers, got {args.sizes!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    rows = ["kind,n,algo,wall_ms,ops,merges"]
    for kind in kinds:
        for n_target in sizes:
            inst = _bench_instance(kind, n_target, args.seed)
            _bench_one(inst, args.phi)  # warmup, excluded
            samples = [_bench_one(inst, args.phi) for _ in range(3)]
            wall = statistics.median(s[0] for s in samples)
            ops, merges = samples[0][1], samples[0][2]
            rows.append(f"{kind},{inst.n},fast,{wall:.3f},{ops},{merges}")
    _write(args.output, "\n".join(rows) + "\n")
    print(f"wrote {args.output} ({len(rows) - 1} rows)", file=sys.stderr)
    return EXIT_OK
