"""Tests of the benchmark itself, at tiny workload sizes.

Run with ``python3 -m pytest perfbench``.  Each workload runs traced and
untraced; every metric of ``BENCHMARK.json`` must come out finite and
with its unit, traced and untraced replays must produce identical
outputs, and the output checks must be able to fail.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._load_engine()

import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Sizes small enough for a test, large enough that every layer works:
#: the d3 run outlasts the first measurement period and the partitioned
#: run reaches its first rebalance check.
TINY = {"heavy-probe": 300, "d3-adaptive": 0.5, "skew-partitioned": 5_000}
SEED = 2


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "CACHE_DIR", tmp_path / "cache")


def tiny_run(name, trace):
    return run.measure(
        name, SEED, seconds=0, trace=trace, size=TINY[name],
        min_calls=1, setup_repeats=1, write=False,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_present_finite_and_has_its_unit(name, trace):
    record = tiny_run(name, trace)
    result = record["result"]
    assert result["correct"], record["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]), metric["name"]
    for key in ("commit", "python", "nproc", "seed", "tuples", "chunk", "shards"):
        assert key in record["meta"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_replays_give_identical_outputs(name):
    prep = workloads.WORKLOADS[name].prepare(SEED, TINY[name])
    untraced = run.replay(prep)
    traced = run.replay(prep, traced=True)
    assert not untraced.failures and not traced.failures
    assert traced.obs.comparable() == untraced.obs.comparable()
    assert traced.tracer.spans
    if name == "skew-partitioned":
        assert traced.layers["parallel.rebalancer.rebalances"] >= 1
        assert traced.layers["parallel.executors.migrate_s"] > 0


def test_layer_times_account_for_the_call_spans():
    prep = workloads.WORKLOADS["heavy-probe"].prepare(SEED, TINY["heavy-probe"])
    tracer = run.replay(prep, traced=True).tracer
    calls = [span for span in tracer.spans if span[3] < 0]
    assert len(calls) == len(prep.chunks) + 1
    # Every layer span sits directly under a call span, so the layers'
    # busy times plus the pipeline's own time make up the call total.
    assert all(tracer.spans[span[3]][3] < 0 for span in tracer.spans if span[3] >= 0)
    assert tracer.accounted_s() == pytest.approx(tracer.root_s(), rel=1e-9)


def test_check_fails_on_a_wrong_expected_count(monkeypatch):
    workload = workloads.WORKLOADS["heavy-probe"]
    prep = workload.prepare(SEED, TINY["heavy-probe"])
    right = prep.truth.total
    monkeypatch.setattr(
        workload,
        "pins",
        {"seed": SEED, "size": TINY["heavy-probe"], "true_results": right + 1,
         "results": right},
    )
    record = tiny_run("heavy-probe", False)
    assert not record["result"]["correct"]
    assert record["result"]["failed"] >= 1
    assert "pinned counts" in record["checks"]


def test_check_fails_when_the_truth_disagrees():
    workload = workloads.WORKLOADS["skew-partitioned"]
    prep = workload.prepare(SEED, TINY["skew-partitioned"])
    prep.reference = dict(prep.reference, digest="0" * 32)
    assert any("serial-executor" in failure for failure in run.replay(prep).failures)


def test_the_seed_alone_decides_the_inputs():
    workload = workloads.WORKLOADS["d3-adaptive"]

    def feed(seed):
        prep = workload.prepare(seed, TINY["d3-adaptive"])
        return [(t.stream, t.ts, t.values) for chunk in prep.chunks for t in chunk]

    assert feed(SEED) == feed(SEED)
    assert feed(SEED) != feed(SEED + 1)


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heavy-probe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
