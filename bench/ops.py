"""The two ops the workloads time, and the checks run on their outputs.

Each op goes through the same public calls the ``parammp`` command makes.
Functions are looked up on their modules at call time, so the tracer's
wrappers take effect when installed.  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import corpus
from parammp import formats, geometry, planner, verification

SAMPLES_PER_SEGMENT = 64
ENDPOINT_TOL = 1e-9  # as in ``parammp verify``

CERTIFICATE = "certificate"
ENDPOINT = "endpoint"
ORACLE = "oracle"
EXCEPTION = "exception"
FAIL_KINDS = (CERTIFICATE, ENDPOINT, ORACLE, EXCEPTION)


def known_defects(workload: corpus.Workload, variant: corpus.Variant) -> frozenset:
    """Failure kinds that are the seed's known defects on this input: false
    certificates from shrinking time windows on ``verify-swaps``, and float
    classification of near-degenerate obstacle-pair queries.  They are
    counted by kind; any other failure counts as a failed op."""
    known = set()
    if workload.name == "verify-swaps":
        known.add(CERTIFICATE)
    if variant.kind == corpus.NEAR:
        known.add(ORACLE)
    return frozenset(known)


@dataclass
class Outcome:
    """What one op produced, kept for the checks."""

    seconds: float
    output: Optional[str] = None  # serialize_plan text or the classify report
    query: object = None
    result: object = None  # PlanResult (verify) or RegionLabel (classify)
    frame: object = None
    certificate: object = None
    error: Optional[BaseException] = None

    @property
    def digest(self) -> str:
        return hashlib.sha256((self.output or "").encode()).hexdigest()


def verify_op(text: str) -> Outcome:
    """parse_problem -> to_query -> plan -> certify_separation -> serialize_plan."""
    t0 = time.perf_counter()
    try:
        document = formats.parse_problem(text)
        query = document.to_query()
        result = planner.plan(
            query,
            mode=document.frame_mode(),
            snap_tol=document.options.snap_tolerance,
        )
        certificate = verification.certify_separation(
            result.path, samples_per_segment=SAMPLES_PER_SEGMENT
        )
        output = formats.serialize_plan(result)
    except Exception as exc:  # every failure is counted, the loop goes on
        return Outcome(time.perf_counter() - t0, error=exc)
    return Outcome(
        time.perf_counter() - t0,
        output=output,
        query=query,
        result=result,
        frame=result.frame,
        certificate=certificate,
    )


def classify_op(text: str) -> Outcome:
    """parse_problem -> to_query -> make_frame -> classify, as ``parammp classify``."""
    t0 = time.perf_counter()
    try:
        document = formats.parse_problem(text)
        query = document.to_query()
        mode = document.frame_mode() or planner.default_mode(query)
        frame = geometry.make_frame(query, mode)
        label = geometry.classify(query, frame, document.options.snap_tolerance)
        output = json.dumps(
            {
                "version": formats.FORMAT_VERSION,
                "mode": frame.mode.value,
                "region": {"j": label.j, "t": label.t, "c": label.c},
            },
            indent=2,
        )
    except Exception as exc:  # every failure is counted, the loop goes on
        return Outcome(time.perf_counter() - t0, error=exc)
    return Outcome(
        time.perf_counter() - t0, output=output, query=query, result=label, frame=frame
    )


OPS = {"verify": verify_op, "classify": classify_op}


def failures(outcome: Outcome) -> list[str]:
    """Failure kinds of one op; empty when every check passed."""
    if outcome.error is not None:
        return [EXCEPTION]
    kinds = []
    query, result = outcome.query, outcome.result
    if outcome.certificate is not None:
        if not outcome.certificate.passed:
            kinds.append(CERTIFICATE)
        path = result.path
        n = query.robot_count
        start_err = max(
            float(np.linalg.norm(path.position(r, 0.0) - query.starts[r])) for r in range(n)
        )
        goal_err = max(
            float(np.linalg.norm(path.position(r, 1.0) - query.goals[r])) for r in range(n)
        )
        moved = not np.array_equal(path.obstacles, query.obstacles)
        if start_err > ENDPOINT_TOL or goal_err > ENDPOINT_TOL or moved:
            kinds.append(ENDPOINT)
        label = result.region
    else:
        label = result
    if label != verification.classify_oracle(query, outcome.frame):
        kinds.append(ORACLE)
    return kinds
