"""Run one workload once per seed and report each metric's spread.

Spread is (q3 - q1) / median over the runs, with the quartiles that
`statistics.quantiles(values, n=4)` gives. Runs go one after another, so
only one benchmark process is alive at a time. From the repository root:

    python3 perfbench/spread.py --workload tableau-clifford --seeds 201-210 --seconds 35
    python3 perfbench/spread.py --workload dense-magic --seeds 1-5 --seconds 35 --json out.json

Exit code 1 means a run failed, printed no result or was not correct.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(results: list[dict]) -> dict:
    """name -> [median, q1, q3, (q3 - q1) / median] over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)  # med is the median
        out[name] = [med, q1, q3, (q3 - q1) / med if med else 0.0]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 201-210")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the runs and summary here")
    args = parser.parse_args(argv)

    results, ok = [], True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        result["seed"] = seed
        ok &= result["correct"] and result["failed"] == 0
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}", flush=True)
    if len(results) < 2:
        return 1
    summary = summarize(results)
    print(f"{args.workload}: {len(results)} runs of {args.seconds:g} s")
    for name, (med, q1, q3, spread) in summary.items():
        print(f"  {name:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}")
    if args.json:
        args.json.write_text(json.dumps({"runs": results, "summary": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
