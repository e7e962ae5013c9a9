"""Write a BENCH file: every workload, untraced over several seeds plus one traced run.

Run from the root of a checkout:

    python3 perfbench/bench_file.py --label seed

Each run lasts ``run_seconds`` of ``BENCHMARK.json``; the seeds are
`SEEDS`, the traced run uses the first.  The result goes to
``perfbench/results/BENCH_<label>.json``: for each workload the per-seed
end-to-end metrics with their median, the traced run's per-layer
metrics, failures by type, and the run environment.
Later performance changes commit their own file and cite both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2, 3)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    out = {"label": args.label, "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [_run(name, seed, seconds, 0) for seed in SEEDS]
        traced = _run(name, SEEDS[0], seconds, 1)
        end_to_end = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            end_to_end[m["name"]] = {"median": statistics.median(values), "values": values,
                                     "unit": m["unit"]}
        out["workloads"][name] = {
            "why": w["why"],
            "end_to_end": end_to_end,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures_by_type": [r["failures_by_type"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_self_s": traced["info"]["self_s"],
            "environment": runs[0]["environment"],
        }
        print(name, {k: round(v["median"], 6) for k, v in end_to_end.items()}, flush=True)
    path = HERE / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
