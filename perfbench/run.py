"""tautclass benchmark: one workload, closed loop, exact answers checked.

Run from the root of a checkout (no install needed; ``src`` is put on
the import path):

    python3 perfbench/run.py --workload product_g2 --seed 1 --seconds 20 --trace 0

One process, one caller, no threads.  The op inputs come from ``--seed``.
Ops run back to back until ``--seconds`` have passed; each op's set-up
and solve phases are timed, and its answer is checked against a known
answer outside the timed region.  An op that raises or answers wrongly
counts as failed, with the exception type recorded.  After the loop the
real ``tautclass`` command of the workload runs in a subprocess with
``PYTHONPATH=src`` (through ``cli_child.py``, which adds the reference
samples) and its JSON report is checked too.

Times are reported at reference machine speed (see ``speed.py``): on a
shared CPU the speed drifts, so each measured time is scaled by the
speed of a fixed reference computation sampled around it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed,
seed-determined list of ops twice, first untraced and then with the
program's layer functions wrapped in place (see ``tracer.py``), and
prints per-layer counts and self times plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run environment, failures by type and sample counts.
The full record, with raw times and the spans of a traced run, is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from speed import REFERENCE_S, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the command runs at least CLI_MIN_RUNS times and until CLI_BUDGET_S have passed
CLI_MIN_RUNS = 3
CLI_BUDGET_S = 5.0
# percentiles tried for op_tail_s, highest first; the first one with at
# least ten samples, and a tenth of all samples, beyond it is reported
# (on a shared 2-vCPU machine, rarer percentiles moved by 20-30 %
# between runs of the same code)
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# traced-run ops per second of --seconds, sized so that the untraced and
# the traced pass over the same ops together take about --seconds
TRACE_OPS_PER_S = {
    "product_g2": 0.25,
    "fixtures_eval": 30.0,
    "boundary_quad": 4.0,
    "witt_sum": 0.15,
}


def _nearest_rank(sorted_values, p):
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def tail(values):
    """(percentile, value) of the highest grid percentile with enough samples beyond."""
    ordered = sorted(values)
    for p in TAIL_GRID:
        value, beyond = _nearest_rank(ordered, p)
        if beyond >= max(10, len(ordered) / 10):
            return p, value
    return 50.0, _nearest_rank(ordered, 50.0)[0]


def environment() -> dict:
    import tautclass

    try:
        from tautclass._kernels import _fast  # noqa: F401

        fast = True
    except ImportError:
        fast = False
    return {
        "kernel_backend": tautclass.KERNEL_BACKEND,
        "fast_importable": fast,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class OpLog:
    """Raw timings and outcomes of the ops of one pass.

    Times exclude the reference samples taken during the op; ``ops`` holds
    (start, end, setup, solve) of each correct op and ``busy`` (start,
    end, total including the check) of every op.
    """

    def __init__(self):
        self.ops: list[tuple[float, float, float, float]] = []
        self.busy: list[tuple[float, float, float]] = []
        self.attempted = 0
        self.failures: Counter = Counter()
        self.first_failure: dict = {}

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] += 1
        self.first_failure.setdefault(kind, detail)

    def merge(self, other: "OpLog") -> None:
        """Take over the outcome counts of another pass."""
        self.attempted += other.attempted
        self.failures += other.failures
        for kind, detail in other.first_failure.items():
            self.first_failure.setdefault(kind, detail)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_op(workload, inp, log: OpLog, tracer=None, op_id=0, sampler=None) -> None:
    """One op: timed set-up and solve, then the untimed known-answer check."""
    log.attempted += 1

    def clock():
        return time.perf_counter() - (sampler.spent_s if sampler else 0.0)

    start = time.perf_counter()
    t0 = clock()
    try:
        if tracer is None:
            built = workload.setup(inp)
            t1 = clock()
            answer = workload.solve(inp, built)
            t2 = clock()
        else:
            with tracer.op(op_id):
                with tracer.span("op.setup"):
                    built = workload.setup(inp)
                t1 = clock()
                with tracer.span("op.solve"):
                    answer = workload.solve(inp, built)
                t2 = clock()
        wrong = workload.check(inp, built, answer)
    except Exception as exc:  # any error of the program is a failed op
        log.fail(type(exc).__name__, f"{inp!r:.200}: {exc!r:.300}")
    else:
        if wrong is not None:
            log.fail("WrongAnswer", f"{inp!r:.200}: {wrong}")
        else:
            log.ops.append((start, time.perf_counter(), t1 - t0, t2 - t1))
    log.busy.append((start, time.perf_counter(), clock() - t0))


def run_cli(workload) -> tuple[float, list[float], str | None]:
    """The real command in a subprocess.

    Returns its wall time less the reference samples taken inside it,
    those samples, and what was wrong with its report (None if nothing).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, str(HERE / "cli_child.py"), *workload.CLI]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    last = (proc.stderr.strip().splitlines() or [""])[-1]
    speed = json.loads(last[len("# speed "):]) if last.startswith("# speed ") else {}
    wall -= speed.get("spent_s", 0.0)
    samples = speed.get("samples", [])
    if proc.returncode != 0:
        return wall, samples, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    try:
        workload.check_cli(json.loads(proc.stdout))
    except Exception as exc:  # a malformed or wrong report fails the CLI op
        return wall, samples, f"{type(exc).__name__}: {exc}"
    return wall, samples, None


def run_cli_inprocess(workload) -> tuple[float, list[float], str | None]:
    """The same command through ``tautclass.cli.main`` in this process."""
    from tautclass import cli

    out, err = io.StringIO(), io.StringIO()
    sampler = SpeedSampler()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler:
            t0 = time.perf_counter()
            code = cli.main(workload.CLI)
            wall = time.perf_counter() - t0 - sampler.spent_s
    finally:
        os.chdir(cwd)
    if code != 0:
        return wall, sampler.samples, f"exit {code}: {err.getvalue()[-300:]}"
    return wall, sampler.samples, None


def cli_phase(workload, log: OpLog, inprocess: bool = False):
    """Run the command CLI_MIN_RUNS times and until CLI_BUDGET_S have passed.

    Returns the raw wall times, the same times at reference speed, and
    the reference samples taken during the runs.
    """
    raw, scaled, samples = [], [], []
    runs, deadline = 0, time.perf_counter() + CLI_BUDGET_S
    while runs < CLI_MIN_RUNS or time.perf_counter() < deadline:
        runs += 1
        log.attempted += 1
        try:
            wall, inside, wrong = (run_cli_inprocess if inprocess else run_cli)(workload)
        except Exception as exc:  # a crash or timeout fails the CLI op
            wall, inside, wrong = None, [], f"{type(exc).__name__}: {exc}"
        if wrong is not None or not inside:
            log.fail("CliFailed", wrong or "no reference samples")
            continue
        raw.append(wall)
        scaled.append(wall * REFERENCE_S / statistics.fmean(inside))
        samples += inside
    return raw, scaled, samples


def settle(workload, seed: int) -> None:
    """One uncounted op, then freeze what exists so collections stay small."""
    run_op(workload, next(workload.inputs(seed + 1)), OpLog())
    gc.collect()
    gc.freeze()


def measure(workload, seed: int, seconds: float) -> tuple[dict, OpLog, dict]:
    """The untraced run: closed loop for `seconds`, then the CLI."""
    log, sampler = OpLog(), SpeedSampler()
    inputs = workload.inputs(seed)
    settle(workload, seed)
    with sampler:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            run_op(workload, next(inputs), log, sampler=sampler)
    cli_raw, cli_scaled, cli_samples = cli_phase(workload, log)

    scales = [sampler.scale(start, end) for start, end, _, _ in log.ops]
    setup = [s * k for (_, _, s, _), k in zip(log.ops, scales)]
    solve = [s * k for (_, _, _, s), k in zip(log.ops, scales)]
    totals = [a + b for a, b in zip(setup, solve)]
    busy = sum(total * sampler.scale(start, end) for start, end, total in log.busy)
    metrics, p = {}, None
    if log.ops and cli_scaled:
        p, tail_value = tail(totals)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solve_s": (statistics.median(solve), "s"),
            "op_p50_s": (statistics.median(totals), "s"),
            "op_tail_s": (tail_value, "s"),
            "ops_per_s": (len(log.ops) / busy, "1/s"),
            "cli_wall_s": (statistics.median(cli_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    raw_totals = [a + b for _, _, a, b in log.ops]
    info = {
        "ops_ok": len(log.ops),
        "cli_runs": len(cli_raw),
        "op_tail_percentile": p,
        "raw": {
            "setup_s": statistics.median(a for _, _, a, _ in log.ops) if log.ops else None,
            "solve_s": statistics.median(b for _, _, _, b in log.ops) if log.ops else None,
            "op_p50_s": statistics.median(raw_totals) if log.ops else None,
            "ops_per_s": len(log.ops) / sum(t for _, _, t in log.busy) if log.busy else None,
            "cli_wall_s": statistics.median(cli_raw) if cli_raw else None,
        },
        "reference_median_s": statistics.median(sampler.samples) if sampler.samples else None,
        "reference_samples": len(sampler.samples),
        "reference_s": {"loop": sampler.samples, "cli": cli_samples},
        "cli_wall_s": cli_raw,
        "op_samples": [[*op, k] for op, k in zip(log.ops, scales)],
    }
    return metrics, log, info


def trace_ops(workload, seconds: float) -> int:
    return max(2, round(seconds * TRACE_OPS_PER_S[workload.name]))


def trace_run(workload, seed: int, count: int, sampler: SpeedSampler | None = None):
    """The fixed ops of a traced run: an untraced pass, then a traced pass.

    The reference samples are taken in the untraced pass only, where no
    wrapper slows them down and none of their work is counted.
    """
    from tracer import Tracer

    settle(workload, seed)
    plain, traced, tracer = OpLog(), OpLog(), Tracer()
    inputs = workload.inputs(seed)
    with sampler if sampler is not None else contextlib.nullcontext():
        for op_id in range(1, count + 1):
            run_op(workload, next(inputs), plain, op_id=op_id, sampler=sampler)
    inputs = workload.inputs(seed)
    tracer.install()
    try:
        for op_id in range(1, count + 1):
            run_op(workload, next(inputs), traced, tracer, op_id)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def measure_traced(workload, seed: int, seconds: float) -> tuple[dict, OpLog, dict]:
    """The traced run: the same fixed ops untraced, then traced, then the CLI."""
    from tracer import OP, PHASES, TARGETS

    count = trace_ops(workload, seconds)
    sampler = SpeedSampler()
    plain, traced, tracer = trace_run(workload, seed, count, sampler)
    log = OpLog()
    log.merge(plain)
    log.merge(traced)
    cli_raw, cli_scaled, cli_samples = cli_phase(workload, log)
    inproc_raw, inproc_scaled, inproc_samples = cli_phase(workload, log, inprocess=True)

    k = REFERENCE_S / statistics.fmean(sampler.samples) if sampler.samples else 1.0
    plain_total = sum(a + b for _, _, a, b in plain.ops)
    traced_total = sum(a + b for _, _, a, b in traced.ops)
    self_time = tracer.self_time  # per span name, over all traced ops
    op_total = sum(self_time.values())

    def self_s(*names):
        """Self time per traced op at reference speed."""
        return sum(self_time.get(n, 0.0) for n in names) / count * k

    metrics: dict = {}
    for name, _, _, kind in TARGETS:
        metrics[f"{name}.calls"] = (tracer.counts[f"{name}.calls"], "count")
        if kind == "span":
            metrics[f"{name}.s"] = (self_s(name), "s")
    for key in ("exactmath.determinant.calls.int", "exactmath.determinant.calls.frac",
                "exactmath.determinant.calls.quad", "exactmath.fraction_new.calls",
                "witt.places", "witt.dimension"):
        metrics[key] = (tracer.counts[key], "count")
    metrics["unwrapped.s"] = (self_s(OP, *PHASES), "s")
    metrics["trace.ops"] = (count, "count")
    metrics["trace.op_s"] = (traced_total / count * k, "s")
    metrics["trace.overhead_s"] = ((traced_total - plain_total) / count * k, "s")
    if cli_scaled and inproc_scaled:
        overhead = statistics.median(cli_scaled) - statistics.median(inproc_scaled)
        metrics["cli.overhead_s"] = (overhead, "s")
    else:
        metrics = {}
    info = {
        "ops": count,
        "untraced_op_s": plain_total / count,
        "traced_op_s": traced_total / count,
        "self_s": dict(sorted(self_time.items())),
        "self_pct": {n: 100.0 * t / op_total for n, t in sorted(self_time.items())},
        "counts": dict(sorted(tracer.counts.items())),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "cli_wall_s": cli_raw,
        "cli_inprocess_s": inproc_raw,
        "reference_s": {"loop": sampler.samples, "cli": cli_samples,
                        "cli_inprocess": inproc_samples},
    }
    return metrics, log, {**info, "_spans": tracer.spans}


def write_record(path: Path, record: dict, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if spans:
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for span in spans:
                fh.write(json.dumps(list(span)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tautclass" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        sys.stderr.write(f"no tautclass source tree at {ROOT} (need src/tautclass and fixtures/)\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    workload.prepare()
    env = environment()
    if args.trace:
        metrics, log, info = measure_traced(workload, args.seed, args.seconds)
    else:
        metrics, log, info = measure(workload, args.seed, args.seconds)
    spans = info.pop("_spans", None)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": log.attempted,
        "failed": log.failed,
        "error_rate": log.failed / log.attempted if log.attempted else 1.0,
        "failures_by_type": dict(log.failures),
        "first_failure": log.first_failure,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    write_record(HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                 record, spans)

    shown = {k: v for k, v in info.items()
             if k not in ("self_s", "self_pct", "counts", "op_samples", "reference_s",
                          "cli_wall_s", "cli_inprocess_s")}
    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# error_rate {record['error_rate']:.6g} ({log.failed} of {log.attempted}); "
          f"failures by type {json.dumps(dict(log.failures), sort_keys=True)}")
    print("# info " + json.dumps(shown, sort_keys=True))
    print(json.dumps({
        "correct": log.failed == 0 and bool(metrics),
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
