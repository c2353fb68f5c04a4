"""Checks on the benchmark itself, at a smoke scale (``pytest perfbench/``).

Smoke-scale records carry their ``scale`` and are never compared; these
tests only pin the benchmark's contracts: engines agree, tracing changes
no simulated number, and every emitted name is declared.
"""

from __future__ import annotations

import re

import pytest

from perfbench import compare, load_spec, run, workloads

#: Workload size as a share of the benchmark's (test-only ``--scale``);
#: large enough that cluster-failover still reaches its 12 ms recovery.
SMOKE = 0.1
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _simulated(name: str, engine: str, tmp_path) -> dict:
    prepared = workloads.build(name, seed=7, scale=SMOKE, engine=engine, workdir=tmp_path)
    outcome = prepared.run()
    assert workloads.check(outcome, prepared.expected_accesses) == []
    return workloads.simulated_metrics(outcome)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_object_and_vectorized_engines_agree(name, tmp_path):
    assert _simulated(name, "object", tmp_path) == _simulated(name, "vectorized", tmp_path)


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced_record(request):
    return run.measure(request.param, seed=42, seconds=0, trace=True, scale=SMOKE)


def test_traced_run_matches_untraced(traced_record):
    assert traced_record["correct"], traced_record["problems"]
    assert traced_record["failed"] == 0
    assert len(traced_record["repeats"]) >= run.MIN_REPEATS
    digests = {repeat["digest"] for repeat in traced_record["repeats"]}
    assert digests == {traced_record["traced"]["digest"]}
    assert traced_record["per_layer"]["host.attributed_share"] >= 0.9


def test_emitted_names_are_declared(traced_record):
    spec = load_spec()
    for section in ("end_to_end", "per_layer"):
        declared = {metric["name"]: metric for metric in spec[section]}
        assert set(traced_record[section]) == set(declared)
        for name, metric in declared.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(metric["unit"]), metric
    for trace in (False, True):
        line = run.result_line({**traced_record, "trace": trace}, spec)
        section = "per_layer" if trace else "end_to_end"
        assert set(line["metrics"]) == {metric["name"] for metric in spec[section]}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_compare_verdicts():
    host = {"name": "accesses_per_s", "better": "higher", "bound": 0.1}
    steady = [(100.0 + i, 100.0 + i) for i in range(10)]
    assert compare.verdict(host, steady)["verdict"] == "unchanged"
    faster = [(100.0 + i, 130.0 + i) for i in range(10)]
    assert compare.verdict(host, faster)["verdict"] == "improved"
    slower = [(100.0 + i, 80.0 + i) for i in range(10)]
    assert compare.verdict(host, slower)["verdict"] == "regressed"
    noisy = [(100.0 * (1 + (i % 2)), 100.0 * (1 + (i % 2))) for i in range(10)]
    assert compare.verdict(host, noisy)["verdict"] == "unresolved"
    simulated = {"name": "sim_makespan_s", "better": "lower", "bound": 0.05}
    assert compare.verdict(simulated, [(1.0, 1.0)] * 10)["verdict"] == "unchanged"
    assert compare.verdict(simulated, [(1.0, 1.0)] * 9 + [(1.0, 1.001)])["verdict"] == "regressed"
