"""The knotbands benchmark: one command, every metric, every output checked.

    python3 bench/run.py --workload surfaces --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in a fresh interpreter (``worker.py``) with one thread
and one client in a closed loop. With ``--trace 0`` the run reports the
end-to-end metrics; ``setup_s`` is the median over 2 x SETUP_RUNS start-ups.
With ``--trace 1`` a separate run reports the per-layer metrics. The
last line of standard output is one JSON object; the lines before it
give each metric by name with its unit. The exit code is 0 whenever the
workload ran, whether or not its outputs passed their checks (the JSON
says so), and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3  # start-ups before and again after the loop of a --trace 0 run
DEADLINE_S = 170  # a run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Start worker.py and wait for its JSON line; ``setup_s`` is the time
    from start to ready at baseline machine speed (see probe.py)."""
    # -S skips the site-packages hooks, which may import third-party
    # modules at start-up; set-up then counts the interpreter and the program
    cmd = [sys.executable, "-S", str(BENCH / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = speed()
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {' '.join(args)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}: {' '.join(args)}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result.pop("ready") - started) * (before + speed()) / 2
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, items, deadline: float) -> dict:
    common = ["--workload", workload, "--seed", str(seed)]
    run = common + ["--seconds", str(seconds), "--trace", str(int(trace))]
    if items is not None:
        run += ["--items", str(items)]
    if trace:
        return spawn(run, deadline)

    def setups():
        return [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS)]

    # start-ups on both sides of the loop, so that a slow spell of the
    # machine shortly before or after it does not set the median alone
    before = setups()
    result = spawn(run, deadline)
    result["metrics"]["setup_s"] = statistics.median(before + setups())
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="run exactly this many items (smoke tests)")
    args = ap.parse_args(argv)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            deadline = time.monotonic() + DEADLINE_S
            res = measure(name, args.seed, args.seconds, bool(args.trace), args.items, deadline)
        except WorkerFailed as exc:
            print(exc, file=sys.stderr)
            return 1
        attempted += res["attempted"]
        failed += res["failed"]
        for problem in res["problems"]:
            print(f"{name}: FAILED {problem}", file=sys.stderr)
        prefix = "" if args.workload != "all" else f"{name}."
        print(f"{name:<9} {'fail_ratio':<52} {res['failed'] / res['attempted']:>14.6g} ratio")
        print(f"{name:<9} {'machine_speed':<52} {res['metrics']['machine_speed']:>14.6g} ratio")
        for metric, unit in units.items():
            value = res["metrics"][metric]
            print(f"{name:<9} {metric:<52} {value:>14.6g} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
