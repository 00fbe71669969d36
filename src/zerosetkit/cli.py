"""Command-line front end: instance generation and validation, the embedding
pipeline, zero-set draws, sparsest cut, isoperimetry, line functionals, and
the verification suite.  Every command is deterministic given (argv, seed)
and writes a JSON report carrying a schema version."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from ._rng import RandomnessSpec
from .applications import (
    SparsestCutInstance,
    brute_isoperimetric,
    brute_sparsest_cut,
    iso_certificate,
    line_functional_embed,
    sdp_gl_solve,
    sweep_round_cut,
)
from .descent import EmbedConfig, euclidean_embed_pipeline
from .errors import (
    BadParams,
    CapError,
    ConclusionViolated,
    SolverError,
    UsageError,
    ValidationError,
)
from .metric import (
    PointMeasure,
    QuasiParams,
    generate_instance,
    instance_from_json,
    instance_to_json,
    require_floats,
    snowflake_embed,
)
from .randomzero import general_zeroset_sampler, spreading_estimate
from .verify import SCHEMA_VERSION, verify_suite


def _write_report(path: Optional[str], report: dict) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(report, indent=2, sort_keys=True)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load_instance(path: str):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return instance_from_json(obj)


def _measure_for(space, measure):
    return measure if measure is not None else PointMeasure(np.ones(space.n))


# -------------------------------------------------------------------------
# subcommands
# -------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    params = {}
    for key in ("dim", "rows", "cols", "level", "n", "degree"):
        val = getattr(args, key.replace("-", "_"))
        if val is not None:
            params[key] = val
    if args.p is not None:
        params["p"] = args.p
    inst = generate_instance(args.family, params, seed=args.seed)
    _write_report(args.out, {"report": "instance", **instance_to_json(inst.space, inst.emap)})
    return 0


def _cmd_validate(args) -> int:
    space, _emap, _measure = _load_instance(args.in_path)
    _write_report(args.out, {"report": "validate", "valid": True, "n": space.n,
                             "diam": space.diam})
    return 0


def _cmd_embed(args) -> int:
    space, emap, measure = _load_instance(args.in_path)
    measure = _measure_for(space, measure)
    phi = params = None
    if not args.neg_type:
        phi = snowflake_embed(space, args.theta)
        params = QuasiParams(s=args.s, eps=args.eps)
    config = EmbedConfig(n_samples=args.n_samples, rounds=args.rounds)
    out_map, report = euclidean_embed_pipeline(
        space, measure, phi=phi, params=params, negative_type=args.neg_type,
        config=config, randomness=RandomnessSpec(args.seed),
    )
    _write_report(args.out, {
        "report": "embedding",
        "coords": out_map.coords.tolist(),
        "distortion": report.distortion,
        "lipschitz": report.lipschitz,
        "inverse_lipschitz": report.inverse_lipschitz,
    })
    return 0


def _cmd_zeroset(args) -> int:
    space, _emap, measure = _load_instance(args.in_path)
    measure = _measure_for(space, measure)
    dist = general_zeroset_sampler(
        space, measure, args.tau, RandomnessSpec(args.seed, ("cli-zeroset",))
    )
    draws = [sorted(dist.draw(i)) for i in range(args.draws)]
    report = {"report": "zeroset", "tau": args.tau, "draws": draws}
    if args.spread_pairs:
        pairs = [tuple(map(int, p.split(","))) for p in args.spread_pairs]
        report["spreading"] = spreading_estimate(
            dist, args.zeta, args.tau, pairs, args.draws, space
        )
    _write_report(args.out, report)
    return 0


def _cmd_sparsest_cut(args) -> int:
    with open(args.in_path, encoding="utf-8") as fh:
        inst = SparsestCutInstance.from_json(json.load(fh))
    sol = sdp_gl_solve(inst, tol=args.tol)
    rounded = sweep_round_cut(inst, sol["vectors"])
    report = {
        "report": "sparsest-cut",
        "sdp_value": sol["value"],
        "rounded_cut": sorted(rounded["S"]),
        "rounded_ratio": rounded["ratio"],
    }
    if args.brute:
        brute = brute_sparsest_cut(inst)
        report["brute_opt"] = brute["value"]
        report["brute_cut"] = sorted(brute["S"])
    _write_report(args.out, report)
    return 0


def _cmd_iso(args) -> int:
    space, _emap, measure = _load_instance(args.in_path)
    measure = _measure_for(space, measure)
    dist = general_zeroset_sampler(
        space, measure, args.tau, RandomnessSpec(args.seed, ("cli-iso",))
    )
    cert = iso_certificate(space, measure, dist, args.t, args.samples)
    report = {
        "report": "iso",
        "t": args.t,
        "certificate": cert["bound"],
        "witness": sorted(cert["witness"]) if cert["witness"] is not None else None,
    }
    if args.brute:
        report["brute"] = brute_isoperimetric(space, measure, args.t)
    _write_report(args.out, report)
    return 0


def _cmd_line_embed(args) -> int:
    with open(args.in_path, encoding="utf-8") as fh:
        obj = json.load(fh)
    points = require_floats(obj, "coords")
    if points.ndim != 2:
        raise BadParams("'coords' must be a list of points, each a list of coordinates")
    measure = PointMeasure(
        require_floats(obj, "measure") if obj.get("measure") else np.ones(points.shape[0])
    )
    func, dist = line_functional_embed(
        points, measure, args.p, args.q, args.candidates,
        RandomnessSpec(args.seed, ("cli-line",)),
    )
    _write_report(args.out, {
        "report": "line-embed",
        "p": args.p,
        "q": args.q,
        "direction": func.u.tolist(),
        "scale": func.scale,
        "p_average_distortion": dist,
    })
    return 0


def _cmd_verify_suite(args) -> int:
    summary = verify_suite(args.level, args.seed)
    _write_report(args.out, summary)
    return 0 if summary["all_passed"] else 2


# -------------------------------------------------------------------------
# parser / dispatch
# -------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zerosetkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named instance")
    p.add_argument("--family", required=True)
    p.add_argument("--dim", type=int)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--level", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--degree", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("embed", help="run the Euclidean embedding pipeline")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--neg-type", action="store_true")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--s", type=float, default=0.25)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--n-samples", type=int, default=256)
    p.add_argument("--rounds", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("zeroset", help="draw general random zero sets")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--zeta", type=float, default=4.0)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--spread-pairs", nargs="*", metavar="I,J")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_zeroset)

    p = sub.add_parser("sparsest-cut", help="SDP relaxation plus sweep rounding")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--brute", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sparsest_cut)

    p = sub.add_parser("iso", help="isoperimetric certificate from zero sets")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--brute", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("line-embed", help="best-of-n random line functionals")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--candidates", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_line_embed)

    p = sub.add_parser("verify-suite", help="run the verification checks")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_suite)

    return parser


def run_command(argv) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 on --help; map usage errors to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (CapError, SolverError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ConclusionViolated as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"validation error: malformed JSON input ({exc})", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
