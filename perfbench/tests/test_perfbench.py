"""Tests of the benchmark itself: output format, failure accounting, traced counts.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from workloads import WORKLOADS, WittSum  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# ops per traced pass, small enough to keep the test quick, and layers
# each workload is meant to stress, which its traced counts must show.
TRACED = {
    "product_g2": (1, ["complexes.product_complex.calls", "flatbundles.joint_scalar_sets.calls"]),
    "fixtures_eval": (12, ["reps.load_rep.calls", "flatbundles.evaluate_class.calls"]),
    "boundary_quad": (2, ["exactmath.determinant.calls.quad", "configs.uplus_symbol.calls"]),
    "witt_sum": (1, ["witt.is_zero.calls", "witt.hilbert_symbol.calls", "witt.places"]),
}
# On product_g2 and boundary_quad the counts follow the drawn values only
# through section resampling and Fraction allocations, so some seed pairs
# give equal counts by chance (one product_g2 op: seeds 1, 2 and 6 match
# seed 5); with seed 7 the counts differ from seed 5 on every workload.
SAME_SEED, OTHER_SEED = 5, 7


def _deterministic_counts(tracer) -> dict:
    return {
        k: v
        for k, v in tracer.counts.items()
        if ".calls" in k or k in ("witt.places", "witt.dimension")
    }


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_counts_repeat_for_a_seed_and_change_with_it(name):
    workload = WORKLOADS[name](ROOT)
    workload.prepare()
    count, stressed = TRACED[name]
    runs = {}
    for label, seed in (("first", SAME_SEED), ("again", SAME_SEED), ("other", OTHER_SEED)):
        plain, traced, tracer = run.trace_run(workload, seed, count)
        assert plain.failed == traced.failed == 0, (plain.first_failure, traced.first_failure)
        runs[label] = _deterministic_counts(tracer)
    for key in stressed + ["exactmath.fraction_new.calls"]:
        assert runs["first"].get(key, 0) > 0, key
    assert runs["first"] == runs["again"]
    assert runs["first"] != runs["other"]


class _Fake:
    def __init__(self, error=None, wrong=None):
        self.error, self.wrong = error, wrong

    def setup(self, inp):
        return inp

    def solve(self, inp, built):
        if self.error:
            raise self.error
        return built

    def check(self, inp, built, answer):
        return self.wrong


def test_errors_and_wrong_answers_count_as_failed_ops():
    log = run.OpLog()
    run.run_op(_Fake(), 1, log)
    run.run_op(_Fake(wrong="off by one"), 1, log)
    run.run_op(_Fake(error=KeyError("genus")), 1, log)
    assert log.attempted == 3 and log.failed == 2
    assert dict(log.failures) == {"WrongAnswer": 1, "KeyError": 1}
    assert len(log.ops) == 1 and len(log.busy) == 3


def test_witt_check_rejects_a_decision_that_always_says_zero(monkeypatch):
    workload = WittSum(ROOT)
    quadruples = next(workload.inputs(3))
    acc = workload.setup(quadruples)
    assert workload.check(quadruples, acc, workload.solve(quadruples, acc)) is None
    from tautclass.witt import WittElement

    monkeypatch.setattr(WittElement, "is_zero", lambda self: True)
    assert workload.check(quadruples, acc, True) is not None


def test_tail_percentile_keeps_enough_samples_beyond():
    assert run.tail(list(range(1000)))[0] == 90.0
    assert run.tail(list(range(60)))[0] == 75.0
    p, value = run.tail(list(range(12)))
    assert p == 50.0 and value == 5


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_has_the_declared_metrics(trace, key):
    proc = _bench("--workload", "fixtures_eval", "--seed", "2", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for m in SPEC[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "fixtures_eval", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
