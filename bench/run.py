"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-swaps --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client in this process sends the next
problem only after the previous op returned.  The problems are a seeded
corpus of problem-JSON texts (``corpus.py``); the op is the pipeline
``parammp verify`` or ``parammp classify`` runs (``ops.py``).  Every op's
output is checked outside the timed region.  A run measures for
``--seconds`` seconds and at least ``MIN_OPS`` ops, then finishes the
workload's block of ops, so that every run sees the same mix.  Times are
scaled to a machine of fixed speed (``MachineSpeed``).

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs each problem twice, untraced and traced, checks that both give
byte-identical output, and reports the per-layer metrics.  A table goes to
standard output first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts ops that failed a check, or whose traced output differed
from the untraced output, except where the failure is one of the seed's
known defects (``ops.known_defects``): false certificates on
``verify-swaps`` and oracle mismatches of near-degenerate obstacle-pair
queries.  Any failed op makes ``correct`` false.  Known defects are counted
by kind and lower ``ok_ratio``, the share of ops that passed every check.

The package is imported from ``src/`` of the checkout this file sits in,
never from anywhere else; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

SETUP_RUNS = 11
MIN_OPS = 100  # so that ten samples lie beyond the 90th percentile
REFERENCE_INTERVAL_S = 0.25
REFERENCE_NEAREST = 5
REFERENCE_NOMINAL_S = 0.010
SETUP_TIMEOUT_S = 30
# A fresh interpreter that imports what parammp and ops.py import from
# outside the package, and nothing of parammp.  Set-up times are scaled to
# a machine on which it takes SETUP_REFERENCE_NOMINAL_S.
SETUP_REFERENCE = "import dataclasses, fractions, hashlib, json, numpy"
SETUP_REFERENCE_NOMINAL_S = 0.100
SETUP_SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ops
sys.stdout.write(ops.verify_op(sys.stdin.read()).digest)
"""


def _import_parammp():
    """Import the package from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "parammp" / "__init__.py").is_file():
        print(f"bench: no parammp package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import parammp

    if Path(parammp.__file__).resolve().parent != SRC / "parammp":
        print(f"bench: parammp was imported from {parammp.__file__}", file=sys.stderr)
        sys.exit(2)


def _p90(values) -> float:
    """The 90th percentile, as ``statistics.quantiles`` gives it."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _reference_kernel():
    """Fixed interpreter work in the style of the library (small objects,
    Fractions, sorting, dicts) that shares no code with it."""
    items = [(Fraction(i % 97, 7 + i % 13), str(i), [i]) for i in range(2000)]
    items.sort(key=lambda item: item[0])
    index = {item[1]: item for item in items}
    return sum(item[0] for item in items[:700]), len(index)


class MachineSpeed:
    """Scales wall times to a machine of fixed speed.

    The machine's speed drifts by up to a factor of two over seconds to
    minutes when other tenants load it; a fixed reference kernel slows down
    with it.  The kernel runs between ops every ``REFERENCE_INTERVAL_S``
    with the garbage collector off (so the program's heap cannot slow it).
    A time measured at ``t`` is multiplied by ``REFERENCE_NOMINAL_S`` over
    the mean of the ``REFERENCE_NEAREST`` kernel times nearest to ``t``:
    times read as on a machine where the kernel takes 10 ms.  The mean, not
    the median, because the slow kernel samples mark the slow spells.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)

    def tick(self):
        """Time the kernel if the last sample is old enough."""
        if self.samples and time.perf_counter() - self.samples[-1][0] < REFERENCE_INTERVAL_S:
            return
        gc.disable()
        try:
            t0 = time.perf_counter()
            _reference_kernel()
            t1 = time.perf_counter()
        finally:
            gc.enable()
        self.samples.append((t1, t1 - t0))

    def scale_at(self, when: float) -> float:
        nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - when))
        return REFERENCE_NOMINAL_S / statistics.mean(
            d for _, d in nearest[:REFERENCE_NEAREST]
        )

    @property
    def kernel_s(self) -> list[float]:
        return [d for _, d in self.samples]


def fresh_interpreter(*args: str, stdin: str = "") -> tuple[float, str]:
    """Wall time and standard output of ``python -c ...`` run in the checkout."""
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    return time.perf_counter() - t0, done.stdout if done.returncode == 0 else ""


def measure_setup() -> tuple[list[float], bool]:
    """Scaled set-up times, and whether every set-up printed the expected output.

    A set-up is a fresh interpreter that imports parammp and runs the fixed
    n = m = 1 verify op.  The set-ups run in one block, each between two
    runs of ``SETUP_REFERENCE``, and each is scaled by the mean of those
    two: start-up and imports slow down with the machine's load less than
    the op kernel of ``MachineSpeed`` does.  A first pair, not timed, warms
    the file cache.
    """
    expected = ops.verify_op(corpus.SETUP_PROBLEM).digest

    def setup():
        args = SETUP_SCRIPT, str(SRC), str(BENCH)
        return fresh_interpreter(*args, stdin=corpus.SETUP_PROBLEM)

    ok = setup()[1] == expected
    references = [fresh_interpreter(SETUP_REFERENCE)[0]]
    times = []
    for _ in range(SETUP_RUNS):
        seconds, output = setup()
        references.append(fresh_interpreter(SETUP_REFERENCE)[0])
        ok = ok and output == expected
        times.append(seconds * SETUP_REFERENCE_NOMINAL_S * 2 / sum(references[-2:]))
    return times, ok


class Tally:
    """Op times and failure counts of one run."""

    def __init__(self):
        self.wall: list[tuple[float, float]] = []  # (start, seconds) as measured
        self.kinds: Counter = Counter()
        self.failed_any = 0  # ops with at least one failure of any kind
        self.hard = 0  # failed ops, known defects aside: counted in ``failed``

    def add(self, start: float, seconds: float, kinds, known=frozenset(), hard=False):
        """Count one op; ``kinds`` outside ``known`` make it a failed op."""
        self.wall.append((start, seconds))
        self.kinds.update(kinds)
        self.failed_any += bool(kinds) or hard
        self.hard += hard or not set(kinds) <= known

    @property
    def attempted(self) -> int:
        return len(self.wall)

    def scaled_ms(self, speed: MachineSpeed) -> list[float]:
        return [1e3 * s * speed.scale_at(t + s / 2) for t, s in self.wall]


def timed(op, text):
    """Run one op; its start time and outcome."""
    return time.perf_counter(), op(text)


def end_to_end(workload, docs, seconds: float, speed: MachineSpeed):
    op = ops.OPS[workload.op]
    setup_times, setup_ok = measure_setup()
    op(docs[0])  # warm-up: first-call costs are not part of an op

    # The first block of ops runs before any check, so that the peak
    # resident memory read after it is the ops' and not the checker's.
    tally = Tally()
    unchecked = []
    peak_rss_mb = None
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or tally.attempted < MIN_OPS or i % workload.block:
        speed.tick()
        t0, outcome = timed(op, docs[i % len(docs)])
        unchecked.append((t0, outcome, ops.known_defects(workload, workload.variant(i))))
        i += 1
        if peak_rss_mb is None and i < workload.block:
            continue
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for t0, outcome, known in unchecked:
            tally.add(t0, outcome.seconds, ops.failures(outcome), known)
        unchecked.clear()
    speed.tick()
    times_ms = tally.scaled_ms(speed)
    metrics = {
        "op_ms_p50": (_median(times_ms), "ms", tally.attempted),
        "op_ms_p90": (_p90(times_ms), "ms", tally.attempted),
        "ops_per_s": (1e3 * tally.attempted / sum(times_ms), "1/s", tally.attempted),
        "ok_ratio": (1 - tally.failed_any / tally.attempted, "ratio", tally.attempted),
        "setup_s": (_median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    return metrics, tally, setup_ok


def _plan_shape(outcome):
    """Counts read off the emitted plan and certificate, not off internals."""
    path = outcome.result.path
    segments = [seg for per_robot in path.segments for seg in per_robot]
    n, m = path.robot_count, path.obstacles.shape[0]
    cuts = [{seg.t0 for seg in per_robot} | {1} for per_robot in path.segments]
    # Intervals per pair: where both bodies follow one segment each.
    intervals = sum(len(cuts[i] | cuts[k]) - 1 for i in range(n) for k in range(i + 1, n))
    intervals += m * sum(len(c) - 1 for c in cuts)
    return {
        "segments": len(segments),
        "min_duration": min(float(seg.duration) for seg in segments),
        "swaps": outcome.result.swap_count,
        "intervals": intervals,
        "passed": outcome.certificate.passed,
        "json_bytes": len(outcome.output.encode()),
    }


def per_layer(workload, docs, seconds: float, speed: MachineSpeed):
    op = ops.OPS[workload.op]
    tracer = tracing.Tracer()
    totals = tracing.OpTrace()
    op(docs[0])
    with tracer.op(-1):
        op(docs[0])

    tally = Tally()
    traced_wall, mismatches = [], 0
    shapes = []
    pending = None  # spans folded after the next kernel sample
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or not tally.wall or i % workload.block:
        speed.tick()
        if pending:
            totals.add(pending[0], speed.scale_at(pending[1]))
        text = docs[i % len(docs)]
        t0, plain = timed(op, text)
        with tracer.op(i):
            t1, traced = timed(op, text)
        pending = (tracer.spans, t1 + traced.seconds / 2)
        same = plain.digest == traced.digest and plain.error is None and traced.error is None
        mismatches += not same
        known = ops.known_defects(workload, workload.variant(i))
        tally.add(t0, plain.seconds, ops.failures(plain), known, hard=not same)
        traced_wall.append((t1, traced.seconds))
        if plain.certificate is not None:
            shapes.append(_plan_shape(plain))
        i += 1
    speed.tick()
    totals.add(pending[0], speed.scale_at(pending[1]))

    n_ops, n_plans = tally.attempted, max(len(shapes), 1)
    untraced_p50 = _median(tally.scaled_ms(speed))
    traced_p50 = _median([1e3 * s * speed.scale_at(t + s / 2) for t, s in traced_wall])

    def shape_mean(key):
        return sum(s[key] for s in shapes) / n_plans

    def p50_ms(name):
        return _median([t * 1e3 for t in totals.inclusive_s[name]])

    s, c = totals.self_per_op, totals.calls_per_op
    plan_calls = len(totals.inclusive_s["planner.plan"])
    certify_calls = len(totals.inclusive_s["verification.certify"])
    metrics = {
        "geometry.validate_s": (s("geometry.validate"), "s/op", n_ops),
        "geometry.validate_calls": (c("geometry.validate"), "calls/op", n_ops),
        "geometry.classify_s": (s("geometry.classify"), "s/op", n_ops),
        "geometry.classify_calls": (c("geometry.classify"), "calls/op", n_ops),
        "geometry.orderings_s": (s("geometry.orderings"), "s/op", n_ops),
        "geometry.orderings_calls": (c("geometry.orderings"), "calls/op", n_ops),
        "geometry.clearance_s": (s("geometry.clearance"), "s/op", n_ops),
        "geometry.gap_s": (s("geometry.gap"), "s/op", n_ops),
        "deformations.compose_self_s": (s("deformations.compose"), "s/op", n_ops),
        "deformations.compose_calls": (c("deformations.compose"), "calls/op", n_ops),
        "deformations.compose_depth_max": (totals.nested_depth_max, "depth", n_ops),
        "deformations.swap_s": (
            s("deformations.swap_a", "deformations.swap_b"), "s/op", n_ops
        ),
        "deformations.swap_a_calls": (c("deformations.swap_a"), "calls/op", n_ops),
        "deformations.swap_b_calls": (c("deformations.swap_b"), "calls/op", n_ops),
        "deformations.desingularize_s": (s("deformations.desingularize"), "s/op", n_ops),
        "paths.path_build_s": (s("paths.path_build"), "s/op", n_ops),
        "paths.path_builds": (c("paths.path_build"), "calls/op", n_ops),
        "paths.segments": (shape_mean("segments"), "segments/op", len(shapes)),
        "paths.min_segment_duration": (
            min((x["min_duration"] for x in shapes), default=0.0), "t", len(shapes)
        ),
        "paths.segment_at_s": (s("paths.segment_at"), "s/op", n_ops),
        "paths.segment_at_calls": (c("paths.segment_at"), "calls/op", n_ops),
        "planner.plan_ms_p50": (p50_ms("planner.plan"), "ms/call", plan_calls),
        "planner.plan_self_s": (s("planner.plan"), "s/op", n_ops),
        "planner.transposition_s": (s("planner.transposition"), "s/op", n_ops),
        "planner.swaps": (shape_mean("swaps"), "swaps/op", len(shapes)),
        "verification.certify_ms_p50": (
            p50_ms("verification.certify"), "ms/call", certify_calls
        ),
        "verification.certify_self_s": (s("verification.certify"), "s/op", n_ops),
        "verification.pair_intervals": (shape_mean("intervals"), "intervals/op", len(shapes)),
        "verification.distance_samples": (
            shape_mean("intervals") * (ops.SAMPLES_PER_SEGMENT + 1),
            "samples/op",
            len(shapes),
        ),
        "verification.pass_ratio": (shape_mean("passed"), "ratio", len(shapes)),
        "formats.parse_s": (s("formats.parse"), "s/op", n_ops),
        "formats.serialize_s": (s("formats.serialize"), "s/op", n_ops),
        "formats.plan_json_bytes": (shape_mean("json_bytes"), "B/op", len(shapes)),
        "trace.op_ms_p50_untraced": (untraced_p50, "ms", n_ops),
        "trace.op_ms_p50_traced": (traced_p50, "ms", n_ops),
        "trace.overhead_ms": (traced_p50 - untraced_p50, "ms", n_ops),
        "trace.output_mismatches": (mismatches, "count", n_ops),
        "machine.reference_ms": (_median(speed.kernel_s) * 1e3, "ms", len(speed.samples)),
        "machine.wall_op_ms_p50": (_median([s * 1e3 for _, s in tally.wall]), "ms", n_ops),
        "failed_ratio": (tally.failed_any / n_ops, "ratio", n_ops),
    }
    for kind in ops.FAIL_KINDS:
        metrics[f"fail.{kind}"] = (tally.kinds[kind], "count", n_ops)
    return metrics, tally, True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_parammp()
    global ops, tracing
    import ops
    import tracing

    workload = corpus.WORKLOADS[args.workload]
    setup_start = time.perf_counter()
    docs = corpus.generate(workload, args.seed)
    corpus_s = time.perf_counter() - setup_start
    run = per_layer if args.trace else end_to_end
    speed = MachineSpeed()
    metrics, tally, extra_ok = run(workload, docs, args.seconds, speed)

    print(
        f"{workload.name}: seed {args.seed}, trace {args.trace}, "
        f"{tally.attempted} ops, {len(docs)} problems generated in {corpus_s:.2f} s"
    )
    print("failures by kind: " + (", ".join(
        f"{kind} {tally.kinds[kind]}" for kind in ops.FAIL_KINDS
    )))
    print(
        f"machine: reference kernel median {_median(speed.kernel_s) * 1e3:.3f} ms "
        f"over {len(speed.samples)} samples (times scaled to "
        f"{REFERENCE_NOMINAL_S * 1e3:g} ms); unscaled op p50 "
        f"{_median([s for _, s in tally.wall]) * 1e3:.3f} ms"
    )
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit:12s} n={count}")
    result = {
        "correct": tally.hard == 0 and extra_ok,
        "attempted": tally.attempted,
        "failed": tally.hard,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
