"""Command-line interface: plan, classify, verify, components.

Exit codes: 0 success, 1 validation failure (bad input), 2 internal
inconsistency (the library contradicted itself, e.g. an uncertifiable plan).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from .errors import (
    InternalConsistencyError,
    ModeUnsupportedError,
    ParammpError,
    QueryValidationError,
)
from .formats import (
    FORMAT_VERSION, _check_resolution, parse_problem, render_svg, sample_csv, serialize_plan,
)
from .geometry import classify, component_count, make_frame
from .paths import ENDPOINT_TOL
from .planner import default_mode, plan
from .verification import certify_separation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTERNAL = 2


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input: exit 1, not argparse's 2, which this
    command reserves for internal inconsistency."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parammp",
        description="Collision-free multi-robot motion planning among point obstacles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", required=True, help="problem JSON file")
        p.add_argument(
            "--mode",
            choices=["fixed", "obstacle-pair"],
            help="projection-frame mode (default: from the document, else automatic)",
        )
        p.add_argument("--output", help="write the main result here instead of stdout")

    p_plan = sub.add_parser("plan", help="plan and certify a motion, emit the exact path as JSON")
    add_common(p_plan)
    p_plan.add_argument("--samples", type=int, default=256, help="CSV resolution (default 256)")
    p_plan.add_argument("--svg", help="also write an SVG rendering to this file")
    p_plan.add_argument("--csv", help="also write a sampled trajectory CSV to this file")

    p_classify = sub.add_parser("classify", help="report the continuity-region label")
    add_common(p_classify)

    p_verify = sub.add_parser(
        "verify", help="plan, certify separation and check endpoint/obstacle contracts"
    )
    add_common(p_verify)

    p_comp = sub.add_parser("components", help="count generic ordering pairs exactly")
    p_comp.add_argument("n", type=int, help="number of robots")
    p_comp.add_argument("m", type=int, help="number of obstacles")
    p_comp.add_argument("--output", help="write the count here instead of stdout")
    return parser


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load(args):
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise QueryValidationError([f"{args.input}: not UTF-8 text: {exc}"]) from exc
    document = parse_problem(text)
    mode = args.mode.replace("-", "_") if args.mode else None
    if mode is None and document.mode is not None:
        mode = document.frame_mode()
    return document, document.to_query(), mode


def _certified_plan(args):
    """Load, plan with the document's snap tolerance, certify: plan and verify."""
    document, query, mode = _load(args)
    result = plan(query, mode=mode, snap_tol=document.options.snap_tolerance)
    return query, result, certify_separation(result.path)


def _cmd_plan(args) -> int:
    resolution = _check_resolution(args.samples, "--samples")  # before planning
    _, result, certificate = _certified_plan(args)
    if not certificate.passed:
        worst = min(certificate.pairs, key=lambda pair: pair.certified_lower_bound)
        raise InternalConsistencyError(
            f"plan: the path does not certify: {worst.kind} pair "
            f"({worst.first}, {worst.second}) has sampled_min {worst.sampled_min!r} "
            f"and certified lower bound {worst.certified_lower_bound!r}"
        )
    # Every text is built before any file is written.
    svg = args.svg and render_svg(result)
    csv = args.csv and sample_csv(result, resolution=resolution)
    _emit(serialize_plan(result), args.output)
    for text, name in ((svg, args.svg), (csv, args.csv)):
        if name:
            _emit(text, name)
    return EXIT_OK


def _cmd_classify(args) -> int:
    document, query, mode = _load(args)
    frame_mode = mode or default_mode(query)
    frame = make_frame(query, frame_mode)
    label = classify(query, frame, document.options.snap_tolerance)
    _emit(
        json.dumps(
            {
                "version": FORMAT_VERSION,
                "mode": frame.mode.value,
                "region": {"j": label.j, "t": label.t, "c": label.c},
            },
            indent=2,
        ),
        args.output,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    query, result, certificate = _certified_plan(args)
    start_err, goal_err = (
        max(float(np.linalg.norm(row)) for row in result.path.configuration(t) - points)
        for t, points in ((0.0, query.starts), (1.0, query.goals))
    )
    obstacles_stationary = bool(np.array_equal(result.path.obstacles, query.obstacles))
    endpoints_ok = start_err <= ENDPOINT_TOL and goal_err <= ENDPOINT_TOL
    report = {
        "version": FORMAT_VERSION,
        "mode": result.mode.value,
        "region": {"j": result.region.j, "t": result.region.t, "c": result.region.c},
        "swap_count": result.swap_count,
        "endpoint_error": {"start": start_err, "goal": goal_err},
        "obstacles_stationary": obstacles_stationary,
        "separation": {
            "passed": certificate.passed,
            "min_certified": certificate.min_certified,
            "pairs": [{**p._asdict(), "pass": p.passes} for p in certificate.pairs],
        },
        "passed": bool(certificate.passed and endpoints_ok and obstacles_stationary),
    }
    _emit(json.dumps(report, indent=2), args.output)
    status = "pass" if report["passed"] else "FAIL"
    print(
        f"verify: {status} (c={result.region.c}, swaps={result.swap_count}, "
        f"min certified separation {certificate.min_certified:.6g})",
        file=sys.stderr,
    )
    return EXIT_OK if report["passed"] else EXIT_INTERNAL


def _cmd_components(args) -> int:
    n, m = args.n, args.m
    if n < 1 or m < 1:
        raise QueryValidationError(["components: need n >= 1 and m >= 1"])
    # str() prints at most `limit` digits (0: no limit).  The count is at
    # least (n+m)! > 10**(n+m), and lgamma puts its log10 well within half a
    # digit, so no factorial is computed for a count that is clearly too long.
    limit = sys.get_int_max_str_digits()
    if limit and (
        n + m > limit
        or (2 * math.lgamma(n + m + 1) - math.lgamma(m + 1)) / math.log(10) > limit + 0.5
        or component_count(n, m) >= 10**limit
    ):
        raise QueryValidationError(
            [f"components: the count for n = {n}, m = {m} has more than {limit} digits"]
        )
    _emit(str(component_count(n, m)), args.output)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "classify": _cmd_classify,
        "verify": _cmd_verify,
        "components": _cmd_components,
    }
    try:
        return handlers[args.command](args)
    except (QueryValidationError, ModeUnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ParammpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
