"""Run the benchmark over several seeds and write a result file.

    python3 perfbench/sweep.py --seeds 1-10 --label main
    python3 perfbench/sweep.py --seeds 1-5 --workloads cube-sparse --seconds 10

Runs ``run.py`` once per workload and seed, one process at a time, writes
every result to ``perfbench/out/results-<label>.json`` and prints, per
workload and end-to-end metric, the median and the spread (interquartile
range over the median) against the metric's bound.  Two result files are
compared with ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def dump(results: dict) -> str:
    """A result file as JSON with one run per line."""
    runs = ",\n  ".join(json.dumps(run) for run in results["runs"])
    head = json.dumps({k: v for k, v in results.items() if k != "runs"})
    return f'{head[:-1]}, "runs": [\n  {runs}\n]}}\n'


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range 'a-b' or a comma-separated list")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default=time.strftime("%Y%m%d-%H%M%S"))
    args = parser.parse_args()

    runs = []
    for workload in args.workloads.split(","):
        for seed in _seeds(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "wall_s": wall, "result": result})
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)

    out = HERE / "out" / f"results-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(dump({"label": args.label, "benchmark": spec, "runs": runs}))
    metrics = spec["end_to_end"]
    for workload, row in summarize(runs, metrics).items():
        for metric in metrics:
            median, spread = row[metric["name"]]
            print(f"{workload:<14} {metric['name']:<14} median {median:<12.6g} "
                  f"spread {spread:6.1%} (bound {metric['bound']:.0%})")
        print(f"{workload:<14} failed share {row['failed_share']}, correct {row['correct']}")
    print(f"-> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
