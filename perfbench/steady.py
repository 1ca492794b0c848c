"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload finetune-topic --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one process after another, and prints for
each metric its median and the distance between the first and third
quartile as a share of the median, next to the bound in BENCHMARK.json.
A steady benchmark keeps every spread but that of ``setup_s`` well below
its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median.

    Quartiles are those of ``statistics.quantiles(values, n=4)`` (the
    default exclusive method), the definition the acceptance check uses.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        trusted = next(line for line in proc.stdout.splitlines()
                       if line.startswith("perfbench ")).split()[-1]
        print(f"seed {seed}: correct={result['correct']} {trusted} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<24} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        spread = quartile_spread(vals)
        flag = "" if spread < bounds[name] / 3 else "  above a third of the bound"
        print(f"{name:<24} {statistics.median(vals):>12.6g} {spread:>8.4f} "
              f"{bounds[name]:>6}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
