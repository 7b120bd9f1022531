"""Command-line front end.

Subcommands: validate, cover, oracle, check-well-defined, gen, bench,
render. Machine-readable output (JSON/CSV/SVG) goes to the named files,
human messages to standard error. Exit codes: 0 success, 1 internal
invariant breach, 2 parse/usage error, 3 validation violations, 4
non-well-defined witness found.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .boxcover import box_cover_fast
from .hullcover import InternalInvariantError, hull_cover_fast
from .model import (
    GENERATOR_KINDS,
    GenerationError,
    ParseError,
    errors_only,
    parse_instance,
    serialize_instance,
    validate_instance,
)

# bench, generators, phicover and render serve the gen, naive, oracle,
# well-definedness, bench and render commands only; each imports them
# itself, so a plain `cover` start does not compile them

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_WITNESS = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text (byte {e.start})") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _load_valid_instance(args):
    """Parse and validate the input instance, writing every violation to
    stderr, one per line; raise _ValidationFailed if any is an error."""
    if args.scale < 1:
        raise ParseError(f"--scale must be at least 1, got {args.scale}")
    inst = parse_instance(_read(args.input), scale=args.scale)
    violations = validate_instance(inst)
    sys.stderr.write("".join(f"{v}\n" for v in violations))
    if errors_only(violations):
        raise _ValidationFailed()
    return inst


class _ValidationFailed(Exception):
    pass


def cmd_validate(args) -> int:
    try:
        _load_valid_instance(args)
    except _ValidationFailed:
        return EXIT_INVALID
    print("OK", file=sys.stderr)
    return EXIT_OK


def cmd_gen(args) -> int:
    from .generators import generate

    inst = generate(args.kind, trees=args.trees, size=args.size, seed=args.seed)
    _write(args.output, serialize_instance(inst) + "\n")
    print(f"wrote {args.output} (m={inst.m}, n={inst.n})", file=sys.stderr)
    return EXIT_OK


def cmd_cover(args) -> int:
    inst = _load_valid_instance(args)
    trace = None
    if args.algo == "fast":
        if args.phi == "hull":
            trace = [] if args.emit_trace else None
            cover, stats = hull_cover_fast(inst, trace=trace)
        else:
            cover, stats = box_cover_fast(inst)
        stats_obj = stats._asdict()
    else:
        from .phicover import PHI, MergePolicy, naive_phi_cover

        policy = MergePolicy.random_order(args.seed)
        cover, forest = naive_phi_cover(inst, PHI[args.phi], policy)
        stats_obj = {"merges": len(forest.script())}
    _write(
        args.output,
        cover.to_json({"rays": trace} if trace is not None else None) + "\n",
    )
    if args.stats:
        _write(args.stats, json.dumps(stats_obj, separators=(",", ":")) + "\n")
    print(
        f"{args.phi} cover ({args.algo}): {len(cover.regions)} regions",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .phicover import PHI, MergePolicy, compact_json, naive_phi_cover

    inst = _load_valid_instance(args)
    if args.policy == "random":
        policy = MergePolicy.random_order(args.seed)
    else:
        policy = MergePolicy.first_found()
    cover, forest = naive_phi_cover(inst, PHI[args.phi], policy)
    _write(
        args.emit_forest,
        compact_json(forest.to_obj(args.phi)) + "\n",
    )
    if args.output:
        _write(args.output, cover.to_json() + "\n")
    print(
        f"naive {args.phi} cover: {len(cover.regions)} regions, "
        f"{len(forest.script())} merges",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_check_well_defined(args) -> int:
    from .phicover import PHI, check_well_defined

    if not args.exhaustive and args.trials < 2:
        print("error: --trials must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    inst = _load_valid_instance(args)
    if args.exhaustive and inst.m > 6:
        print("error: --exhaustive requires m <= 6", file=sys.stderr)
        return EXIT_USAGE
    verdict = check_well_defined(
        inst, PHI[args.phi], trials=args.trials, seed=args.seed,
        exhaustive=args.exhaustive,
    )
    if verdict.well_defined:
        print(json.dumps({"verdict": "WELL-DEFINED", "runs": verdict.runs}))
        print(f"WELL-DEFINED over {verdict.runs} runs", file=sys.stderr)
        return EXIT_OK
    w = verdict.witness
    print(
        json.dumps(
            {
                "verdict": "WITNESS",
                "runs": verdict.runs,
                "policy_a": w.policy_a,
                "cover_a": w.cover_a.to_obj(),
                "policy_b": w.policy_b,
                "cover_b": w.cover_b.to_obj(),
            },
            separators=(",", ":"),
        )
    )
    print("WITNESS: two merge orders give distinct covers", file=sys.stderr)
    return EXIT_WITNESS


def cmd_bench(args) -> int:
    from .bench import run

    return run(args)


def cmd_render(args) -> int:
    from .render import read_overlay, render_svg

    inst = _load_valid_instance(args)
    cover, rays = read_overlay(_read(args.cover), inst.m) if args.cover else (None, None)
    _write(args.output, render_svg(inst, cover, rays))
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="treecover",
        description="Hull-covers and box-covers of non-crossing plane forests.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("--input", required=True, help="instance JSON file")
        sp.add_argument(
            "--scale",
            type=int,
            default=1,
            help="multiply decimal coordinates into integers (at least 1)",
        )

    sp = sub.add_parser("validate", help="validate an instance file")
    add_input(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("cover", help="compute a hull- or box-cover")
    sp.add_argument("--phi", choices=("hull", "box"), required=True)
    sp.add_argument("--algo", choices=("fast", "naive"), default="fast")
    add_input(sp)
    sp.add_argument("--output", required=True)
    sp.add_argument("--stats", help="write engine stats JSON here")
    sp.add_argument("--seed", type=int, default=0, help="naive merge-policy seed")
    sp.add_argument(
        "--emit-trace",
        action="store_true",
        help="embed the shot-ray trace in the cover JSON (fast hull only)",
    )
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("oracle", help="run the naive cover and emit its forest")
    sp.add_argument("--phi", choices=("hull", "box", "mincircle"), required=True)
    add_input(sp)
    sp.add_argument("--emit-forest", required=True)
    sp.add_argument("--output", help="also write the cover JSON here")
    sp.add_argument("--policy", choices=("first", "random"), default="first")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser(
        "check-well-defined", help="probe merge-order independence"
    )
    sp.add_argument("--phi", choices=("hull", "box", "mincircle"), required=True)
    add_input(sp)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_check_well_defined)

    sp = sub.add_parser("gen", help="generate an instance")
    sp.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    sp.add_argument("--trees", type=int, default=4)
    sp.add_argument("--size", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", required=True)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="time fast vs naive over a size ladder")
    sp.add_argument("--phi", choices=("hull", "box"), required=True)
    sp.add_argument("--kinds", required=True, help="comma-separated kinds")
    sp.add_argument("--sizes", required=True, help="comma-separated target n")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--output", required=True, help="CSV output path")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("render", help="draw an instance (and cover) as SVG")
    add_input(sp)
    sp.add_argument("--cover", help="cover JSON to overlay")
    sp.add_argument("--output", required=True, help="SVG output path")
    sp.set_defaults(func=cmd_render)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a cover or validate run makes no reference cycles beyond argparse's
    # few hundred, so the cyclic collector's passes would find nothing: it
    # is paused, and every exit restores the caller's state
    enabled = gc.isenabled()
    if args.func in (cmd_cover, cmd_validate):
        gc.disable()
    try:
        return args.func(args)
    except _ValidationFailed:
        return EXIT_INVALID
    except (ParseError, GenerationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InternalInvariantError, AssertionError) as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
