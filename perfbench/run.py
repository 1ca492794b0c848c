"""Benchmark of the nanobert pipeline, measured from outside the package.

    python3 perfbench/run.py --workload pretrain-narrow --seed 1 --seconds 36 --trace 0

Runs one workload in this process against the package in ``src/`` of the
checkout this file sits in, prints every metric by name with its unit and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). The full record, with the machine details and
the load verdict, goes to ``perfbench/out/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOAD_NAMES = ("pretrain-wide", "pretrain-narrow", "finetune-topic")
# the process re-executes itself with these set: BLAS on one thread, the
# paper's one-core setting; and a fixed string hash seed, since the
# randomized one changes the order Python frees objects in and so moves peak
# RSS by up to 15%
PROCESS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONHASHSEED": "0"}

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for the timed repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nanobert", "__init__.py")):
        print(f"error: no nanobert sources at {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in PROCESS_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv],
                  {**os.environ, **PROCESS_ENV})
    sys.path.insert(0, SRC)
    import nanobert

    if os.path.dirname(os.path.dirname(os.path.abspath(nanobert.__file__))) != SRC:
        print(f"error: imported nanobert from {nanobert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import spans

    os.makedirs(OUT, exist_ok=True)
    record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    specs = spans.per_layer_specs() if args.trace else harness.END_TO_END
    metrics = record["metrics"]
    missing = [name for name, _, _ in specs if name not in metrics]

    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    load, machine = record["load"], record["machine"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(record['repeats'])} trusted={load['trusted']}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print("load " + json.dumps(load, sort_keys=True))
    for err in record["errors"]:
        print(f"FAILED {err}")
    for name, unit, _ in specs:
        if name in metrics:
            print(f"  {name:<48} {metrics[name]:>16.6g} {unit}")
    failed_share = harness.ratio(record["failed"], record["attempted"])
    print(f"  {'failed_share':<48} {failed_share:>16.6g} ratio")
    stages = record.get("stages", {})
    for name, unit, _, _ in harness.STAGES:
        if name in stages:
            print(f"  {name:<48} {stages[name]:>16.6g} {unit}")
    if missing:
        print(f"error: no successful repeat measured {missing}", file=sys.stderr)
        return 1

    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
