"""The pastroq benchmark: four CLI workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload verify-deep --seed 1 --seconds 20 --trace 0

One client drives ``pastroq.cli.run`` + ``emit`` in process, in a closed
loop: each invocation starts when the previous one has returned. The
package is imported from ``src/`` next to this directory and nowhere else.

``--trace 0`` times untraced invocations for ``--seconds`` seconds and
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced invocations (see ``spans.py``) over whole passes of the workload's
inputs and reports the per-layer metrics. Every invocation of either mode
goes through the correctness gate. The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Workloads,
their layer map and the baseline are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from spans import Tracer, coeff_bits, max_bits

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: (name, unit, better) of every metric, in the order they are printed;
#: BENCHMARK.json lists the same names and units.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("checks_per_s", "1/s", "higher"),
    ("peak_mem_mb", "MB", "lower"),
)
PER_LAYER = (
    ("qcore.mul.calls", "count", "lower"),
    ("qcore.mul.self_s", "s", "lower"),
    ("qcore.mul.term_pairs", "count", "lower"),
    ("qcore.add.calls", "count", "lower"),
    ("qcore.add.self_s", "s", "lower"),
    ("qcore.dilate.calls", "count", "lower"),
    ("qcore.dilate.self_s", "s", "lower"),
    ("qcore.eval_at.calls", "count", "lower"),
    ("qcore.eval_at.self_s", "s", "lower"),
    ("qcore.q_pochhammer.calls", "count", "lower"),
    ("qcore.q_pochhammer.self_s", "s", "lower"),
    ("qcore.coeff_bits.max", "bits", "lower"),
    ("pastro.pastro_poly.calls", "count", "lower"),
    ("pastro.pastro_poly.distinct", "count", "lower"),
    ("pastro.pastro_poly.useful_ratio", "ratio", "higher"),
    ("pastro.pastro_poly.self_s", "s", "lower"),
    ("pastro.partner.calls", "count", "lower"),
    ("pastro.partner.self_s", "s", "lower"),
    ("pastro.baxter_system.calls", "count", "lower"),
    ("pastro.baxter_system.self_s", "s", "lower"),
    ("pastro.verify_baxter.self_s", "s", "lower"),
    ("qdiff.apply.calls", "count", "lower"),
    ("qdiff.apply.self_s", "s", "lower"),
    ("qdiff.compose.calls", "count", "lower"),
    ("qdiff.compose.self_s", "s", "lower"),
    ("qdiff.verify.self_s", "s", "lower"),
    ("biorth.mat_vec.calls", "count", "lower"),
    ("biorth.mat_vec.self_s", "s", "lower"),
    ("biorth.mat_vec.entries", "count", "lower"),
    ("biorth.mat_vec.nonzero_share", "ratio", "higher"),
    ("biorth.make_grid_rep.calls", "count", "lower"),
    ("biorth.make_grid_rep.self_s", "s", "lower"),
    ("biorth.verify.self_s", "s", "lower"),
    ("algebra.casimir_element.calls", "count", "lower"),
    ("algebra.casimir_element.self_s", "s", "lower"),
    ("algebra.verify.self_s", "s", "lower"),
    ("report.render.self_s", "s", "lower"),
    ("report.output_bytes", "bytes", "lower"),
    ("cli.admissibility.calls", "count", "lower"),
    ("cli.admissibility.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: Fresh interpreters timed for setup_s (after one untimed warm-up that
#: writes the bytecode cache, which users also pay only once).
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import pastroq.cli\n"
    "pastroq.cli.build_parser()\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import reference_seconds\n"
    "print(elapsed, reference_seconds())\n"
)


def load_cli():
    """Import pastroq.cli from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        from pastroq import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import pastroq from {SRC}: {exc}") from None
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: pastroq imported from {cli.__file__}, not from {SRC}")
    return cli


# -- workloads -------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """Seeded inputs of one CLI command; each input states its own size."""

    name: str
    #: Number of distinct inputs a run cycles through.
    inputs: int
    #: (cli, seed, count) -> candidate RunConfigs, all admissible.
    make: Callable
    #: (cli, config) -> largest numerator or denominator bit length among
    #: the input's top-degree coefficients: the size that drives its cost.
    bits: Callable
    #: Inclusive range of ``bits`` an input must fall in, if any.
    band: tuple[int, int] | None = None


def _verify_deep(cli, seed, count):
    points = cli.admissible_draws(seed, count, 40)
    return [cli.RunConfig("verify", q=p.q, a=p.a, b=p.b, n_max=40) for p in points]


def _verify_bits(cli, config):
    from pastroq.pastro import pastro_poly
    from pastroq.qcore import QParams

    return coeff_bits(pastro_poly(config.n_max, QParams(config.q, config.a, config.b)))


def _biorth_grid(cli, seed, count, N=16):
    """Seeded (q, b) whose grid, flipped and reflected families are admissible.

    A candidate comes from ``admissible_draws`` (drawn with ``n_max = N``);
    it is kept when, at a = q^(1-N), none of the factors the biorth suite
    divides by vanishes for b, for the flip q^(1-N)/b or for the
    reflection q^(2-N)/b. The predicate is the package's own
    ``QParams.vanishing_factors``.
    """
    from pastroq.qcore import QParams

    out = []
    for p in cli.admissible_draws(seed, 4 * count, N):
        a = p.q ** (1 - N)
        flips = (p.b, a / p.b, p.q ** (2 - N) / p.b)
        if not any(QParams(p.q, a, b).vanishing_factors(N) for b in flips):
            out.append(cli.RunConfig("biorth", q=p.q, b=p.b, N=N))
        if len(out) == count:
            return out
    raise SystemExit(f"bench: seed {seed} gave fewer than {count} biorth points")


def _biorth_bits(cli, config):
    from pastroq.pastro import pastro_poly
    from pastroq.qcore import QParams

    q, N = config.q, config.N
    return coeff_bits(pastro_poly(N, QParams(q, q ** (1 - N), config.b)))


def _sweep_wide(cli, seed, count):
    rng = random.Random(seed)
    return [
        cli.RunConfig("sweep", seed=rng.randrange(1, 10**9), draws=20, n_max=12, fmt="json")
        for _ in range(count)
    ]


def _sweep_bits(cli, config):
    """The sweep draws the same points as ``admissible_draws`` with its seed."""
    from pastroq.pastro import pastro_poly

    points = cli.admissible_draws(config.seed, config.draws, config.n_max)
    return max(coeff_bits(pastro_poly(config.n_max, p)) for p in points)


def _algebra_points(cli, seed, count):
    rng = random.Random(seed)
    configs = []
    for p in cli.admissible_draws(seed, count, 0):
        mu = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
        configs.append(cli.RunConfig("algebra", q=p.q, a=p.a, b=p.b, mu=mu))
    return configs


def _algebra_bits(cli, config):
    return max_bits((config.q, config.a, config.b, config.mu))


# A point's cost varies by +-15% with its coefficient sizes. So a run of
# 20 s cycles through many verify-deep and biorth-grid inputs (each about
# twice) and verify-deep keeps only points with ~900-bit coefficients,
# which also steadies its peak memory; each sweep averages over 20 draws.
# algebra-points cycles through hundreds of points (each about six times),
# so that the slow samples that set its tail come from many points, not
# from the seed's one slowest point.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-deep", 9, _verify_deep, _verify_bits, (700, 1000)),
        Workload("biorth-grid", 8, _biorth_grid, _biorth_bits),
        Workload("sweep-wide", 7, _sweep_wide, _sweep_bits),
        Workload("algebra-points", 384, _algebra_points, _algebra_bits),
    )
}


def select_inputs(cli, workload: Workload, seed: int):
    """The first ``workload.inputs`` seeded candidates whose size is in the band.

    About one verify-deep candidate in seven falls in its band, so a banded
    workload draws forty candidates per input; sizes are computed only
    until enough inputs are found.
    """
    candidates = workload.inputs if workload.band is None else 40 * workload.inputs
    configs, bits = [], []
    for config in workload.make(cli, seed, candidates):
        size = workload.bits(cli, config)
        if workload.band is None or workload.band[0] <= size <= workload.band[1]:
            configs.append(config)
            bits.append(size)
            if len(configs) == workload.inputs:
                return configs, bits
    raise SystemExit(f"bench: seed {seed} gave too few {workload.name} inputs in {workload.band}")


def describe(config) -> dict:
    """The command and parameters of one invocation, as the CLI takes them."""
    keys = {
        "verify": ("q", "a", "b", "n_max"),
        "biorth": ("q", "b", "N"),
        "sweep": ("seed", "draws", "n_max", "fmt"),
        "algebra": ("q", "a", "b", "mu"),
    }[config.command]
    return {"command": config.command} | {key: str(getattr(config, key)) for key in keys}


# -- invocations and the correctness gate ----------------------------------


class Gate:
    """Checks every invocation and counts what failed.

    An operation is an identity check (SKIPped sweep draws are not checks)
    or an invocation. A check fails unless it is PASS. An invocation fails
    on a non-zero exit code, on report bytes that differ from the first
    invocation of the same input, or on a sweep that ran fewer draws than
    it was asked for.
    """

    def __init__(self) -> None:
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.misses: dict[str, int] = {}

    def _miss(self, kind: str, count: int = 1) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + count

    def check(self, key: int, outcome) -> int:
        """Record one invocation; returns the identity checks it completed."""
        if isinstance(outcome, Exception):
            self.attempted += 1
            self.failed += 1
            self._miss(f"raised {type(outcome).__name__}")
            return 0
        report, extra, text = outcome
        statuses = [check.status for check in report.checks if check.status != "SKIP"]
        bad_checks = sum(status != "PASS" for status in statuses)
        misses = []
        if report.exit_code != 0:
            misses.append("exit_code")
        if self.reference.setdefault(key, text) != text:
            misses.append("report_bytes")
        if extra.get("draws_run", 0) < extra.get("draws_requested", 0):
            misses.append("short_sweep")
        if bad_checks:
            self._miss("check_not_pass", bad_checks)
        for kind in misses:
            self._miss(kind)
        self.attempted += len(statuses) + 1
        self.failed += bad_checks + bool(misses)
        return len(statuses)


def invoke(cli, config):
    """One CLI invocation in process: run + emit, exactly as ``main`` does.

    ``cli.run`` and ``cli.emit`` are looked up at call time so that a
    tracer's wrappers on them take effect.
    """
    try:
        report, extra, lines = cli.run(config)
        return report, extra, cli.emit(report, extra, lines, config.fmt)
    except Exception as exc:  # a crash is a failed operation, not a dead benchmark
        return exc


# -- speed calibration -----------------------------------------------------

#: Seconds the reference kernel takes at the nominal speed. Every reported
#: time is a wall time scaled by REFERENCE_S / (the kernel's time measured
#: around it), i.e. seconds on a machine that runs the kernel in 2.5 ms.
#: The CPU speed of a shared 2-CPU machine drifts by +-25% within a minute;
#: the kernel, like pastroq, is pure-Python Fraction arithmetic and never
#: touches the package, so the scaling removes the drift and no change to
#: the package can move it. One probe is itself noisy, so an invocation is
#: scaled by the median of the probes within PROBE_WINDOW_S of it.
REFERENCE_S = 0.0025
PROBE_INTERVAL_S = 0.2
PROBE_WINDOW_S = 1.0


def reference_seconds() -> float:
    """Median of three timings of a fixed stdlib Fraction kernel."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        third = Fraction(1, 3)
        for i in range(1, 400):
            acc += Fraction(i, i + 7) * third
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class SpeedProbe:
    """Times the reference kernel at least every PROBE_INTERVAL_S seconds."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        """Probe if the interval has passed; call between invocations."""
        if force or time.perf_counter() - self.samples[-1][0] >= PROBE_INTERVAL_S:
            self.samples.append((time.perf_counter(), reference_seconds()))

    def scale(self, start: float, end: float) -> float:
        """Factor for an invocation that ran from ``start`` to ``end``."""
        low, high = start - PROBE_WINDOW_S, end + PROBE_WINDOW_S
        near = [seconds for when, seconds in self.samples if low <= when <= high]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, runs: list[tuple[float, float]]) -> list[float]:
        """Scaled durations of (start, end) pairs; probes once more first."""
        self.tick(force=True)
        return [(end - start) * self.scale(start, end) for start, end in runs]


def timed(cli, config, probe: SpeedProbe, runs: list):
    """Invoke once; append (start, end) to ``runs``, then probe."""
    start = time.perf_counter()
    outcome = invoke(cli, config)
    runs.append((start, time.perf_counter()))
    probe.tick()
    return outcome


# -- the two modes ---------------------------------------------------------


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters of importing pastroq.cli and building its parser.

    Each interpreter also times the reference kernel after the import, to
    scale its own figure. Returns (scaled median, wall median).
    """
    scaled, wall = [], []
    for attempt in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, SRC, HERE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if attempt:
            elapsed, reference = map(float, done.stdout.split())
            scaled.append(elapsed * REFERENCE_S / reference)
            wall.append(elapsed)
    return statistics.median(scaled), statistics.median(wall)


def measure_peak_memory(cli, configs, key: int, gate: Gate) -> float:
    """Peak traced Python memory of one invocation, in MB (its own pass)."""
    tracemalloc.start()
    try:
        outcome = invoke(cli, configs[key])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gate.check(key, outcome)
    return peak / 1e6


#: Highest percentile reported as the tail. On a shared machine the p99.5
#: of thousands of few-millisecond invocations is set by the machine's
#: slow moments: it moved by 28% from run to run where p95 moved by 5%.
TAIL_CAP = 0.95


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) of the tail latency.

    The highest percentile with at least ten samples beyond it (the order
    statistic with ten above it), capped at TAIL_CAP and never below the
    median: with fewer than 21 samples the median is returned. The
    percentile and sample count printed beside it say which.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(n - 10, math.ceil(TAIL_CAP * n))  # 1-based
    if rank > n / 2:
        return ordered[rank - 1], 100.0 * rank / n, n
    return statistics.median(ordered), 50.0, n


def end_to_end(cli, configs, memory_key: int, seconds: float, gate: Gate) -> tuple[dict, list[str]]:
    setup_s, setup_wall = measure_setup()
    peak_mb = measure_peak_memory(cli, configs, memory_key, gate)
    probe = SpeedProbe()
    runs: list[tuple[float, float]] = []
    checks: list[int] = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        key = len(runs) % len(configs)
        checks.append(gate.check(key, timed(cli, configs[key], probe, runs)))
    latencies = probe.scaled(runs)
    tail_s, tail_pct, samples = tail(latencies)
    values = {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        # The median of per-invocation rates: a total over the run would
        # weigh the inputs by how often the cycle happened to reach them.
        "checks_per_s": statistics.median(c / t for c, t in zip(checks, latencies)),
        "peak_mem_mb": peak_mb,
    }
    notes = [
        f"latency_tail_s is p{tail_pct:.1f} of {samples} invocations",
        f"identity checks completed: {sum(checks)} in {sum(latencies):.3f} scaled s",
        f"peak_mem_mb taken on input {memory_key}",
        f"unscaled medians: setup {setup_wall:.6g} s, "
        f"latency {statistics.median(end - start for start, end in runs):.6g} s",
        f"speed probes: {len(probe.samples)}, kernel median "
        f"{statistics.median(seconds for _, seconds in probe.samples):.6g} s",
    ]
    return values, notes


def per_layer(cli, configs, seconds: float, gate: Gate) -> tuple[dict, list[str]]:
    """Whole passes over the inputs; each input runs untraced and traced.

    Counts repeat exactly from pass to pass, so the per-pass median is the
    count; times are the median over passes of the per-invocation mean.
    """
    passes: list[dict] = []
    probe = SpeedProbe()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        tracer = Tracer()
        plain: list[tuple[float, float]] = []
        traced: list[tuple[float, float]] = []
        output_bytes = 0
        for key, config in enumerate(configs):
            for tracing in ((False, True) if key % 2 == 0 else (True, False)):
                if tracing:
                    with tracer.installed():
                        outcome = timed(cli, config, probe, traced)
                    probe.tick(force=True)
                    tracer.flush(probe.scale(*traced[-1]))
                    if not isinstance(outcome, Exception):
                        output_bytes += len(outcome[2].encode())
                else:
                    outcome = timed(cli, config, probe, plain)
                gate.check(key, outcome)
        values = tracer.metrics(len(configs))
        values["report.output_bytes"] = output_bytes / len(configs)
        values["trace.overhead_share"] = sum(probe.scaled(traced)) / sum(probe.scaled(plain)) - 1
        passes.append(values)
    values = {
        name: statistics.median(p.get(name, 0.0) for p in passes) for name, _, _ in PER_LAYER
    }
    return values, [f"traced passes: {len(passes)} of {len(configs)} inputs each"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    configs, bits = select_inputs(cli, workload, args.seed)
    gate = Gate()
    if args.trace:
        values, notes = per_layer(cli, configs, args.seconds, gate)
        declared = PER_LAYER
    else:
        # Peak memory follows coefficient size, so it is taken on the
        # input of median size rather than on whichever input comes first.
        middle = sorted(range(len(configs)), key=lambda i: (bits[i], i))[len(configs) // 2]
        values, notes = end_to_end(cli, configs, middle, args.seconds, gate)
        declared = END_TO_END

    band = f", coeff_bits in {list(workload.band)}" if workload.band else ""
    print(f"workload {workload.name} seed {args.seed}: {len(configs)} inputs{band}")
    for key, config in enumerate(configs):
        print(f"  input {key}: {json.dumps(describe(config))} coeff_bits {bits[key]}")
    for name, unit, _ in declared:
        print(f"  {name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(
        f"  failed_share = {gate.failed}/{gate.attempted} = {gate.failed / gate.attempted:.6g}"
        + (f" {json.dumps(gate.misses, sort_keys=True)}" if gate.misses else "")
    )
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
