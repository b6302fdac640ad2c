"""Tests of the benchmark itself: run with ``python3 -m pytest bench``.

They use small inputs, so they check the harness, not the timings.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

cli = run.load_cli()

SMALL = [
    cli.RunConfig("verify", q=Fraction(1, 2), a=Fraction(3), b=Fraction(1, 5), n_max=5),
    cli.RunConfig("biorth", q=Fraction(1, 3), b=Fraction(2, 5), N=4),
    cli.RunConfig("sweep", seed=11, draws=2, n_max=4, fmt="json"),
    cli.RunConfig("algebra", q=Fraction(2, 3), a=Fraction(-1, 2), b=Fraction(5), mu=Fraction(3, 4)),
]
EXACT = ("calls", "term_pairs", "entries", "distinct", "coeff_bits.max")


def _bindings():
    """Every attribute of every pastroq module and class, by identity."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] != "pastroq":
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("pastroq"):
                for member, inner in vars(value).items():
                    out[(name, attr, member)] = inner
    return out


def test_tracing_is_neutral_and_removed_afterwards():
    before = _bindings()
    tracer = Tracer()
    for config in SMALL:
        plain = run.invoke(cli, config)
        with tracer.installed():
            traced = run.invoke(cli, config)
            assert cli.run is not before[("pastroq.cli", "run")]
        tracer.flush()
        assert traced[2] == plain[2]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.calls["cli.run"] == len(SMALL)


def test_every_import_site_is_traced():
    tracer = Tracer()
    with tracer.installed():
        run.invoke(cli, SMALL[0])
    tracer.flush()
    # verify_gevp and friends reach pastro_poly through qdiff's own binding,
    # and verify_baxter_consistency through pastro's.
    assert tracer.calls["pastro.pastro_poly"] > 6
    assert tracer.calls["qcore.mul"] > 0 and tracer.counts["qcore.mul.term_pairs"] > 0
    assert tracer.calls["qdiff.apply"] > 0 and tracer.calls["cli.admissibility"] > 0


def test_traced_counts_repeat_exactly():
    first = run.per_layer(cli, SMALL, 0, run.Gate())[0]
    second = run.per_layer(cli, SMALL, 0, run.Gate())[0]
    exact = [name for name, _, _ in run.PER_LAYER if name.endswith(EXACT)]
    assert len(exact) >= 15
    assert {name: first[name] for name in exact} == {name: second[name] for name in exact}
    assert first["qcore.coeff_bits.max"] > 0 and first["biorth.mat_vec.entries"] > 0


def test_gate_counts_every_kind_of_miss():
    gate = run.Gate()
    report, extra, text = run.invoke(cli, SMALL[2])
    assert gate.check(0, (report, extra, text)) > 0 and gate.failed == 0
    gate.check(0, (report, extra, text + " "))
    gate.check(0, (report, dict(extra, draws_run=1), text))
    gate.check(1, ValueError("boom"))
    assert gate.misses == {"report_bytes": 1, "short_sweep": 1, "raised ValueError": 1}
    assert gate.failed == 3


def test_workload_inputs_are_seeded_and_pass():
    for workload in run.WORKLOADS.values():
        configs, bits = run.select_inputs(cli, workload, 5)
        assert (configs, bits) == run.select_inputs(cli, workload, 5)
        assert len(configs) == workload.inputs
        low, high = workload.band or (0, float("inf"))
        assert all(low <= size <= high for size in bits)
    gate = run.Gate()
    for key, config in enumerate(run.select_inputs(cli, run.WORKLOADS["algebra-points"], 5)[0]):
        gate.check(key, run.invoke(cli, config))
    assert gate.failed == 0


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert run.tail([float(i) for i in range(1000)]) == (949.0, 95.0, 1000)
    assert run.tail([float(i) for i in range(21)]) == (10.0, 100 * 11 / 21, 21)
    assert run.tail([float(i) for i in range(20)]) == (9.5, 50.0, 20)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(declared)
