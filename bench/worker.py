"""One workload in one fresh interpreter: set up, then a closed loop.

``run.py`` starts this file once per measured run (and a few more times
with ``--setup-only`` to take the median set-up time). It prints one JSON
line. Set-up ends at ``ready``, a CLOCK_MONOTONIC reading that the parent
compares with the time it started the process, so set-up counts
interpreter start, imports, input generation and warm-up.

The loop has one client: the next item starts when the previous one
returns, on one thread. Only the library call is timed; generating the
next input and checking the last output are not.

    python3 bench/worker.py --workload surfaces --seed 0 --seconds 30 --trace 0
    python3 bench/worker.py --record   # rewrite recorded.json (seed 0)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import knotbands  # noqa: E402

if not Path(knotbands.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"knotbands imported from {knotbands.__file__}, not from {ROOT / 'src'}")

from probe import PROBE_NS, probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ITEMS = 100  # so that at least 10 items lie beyond p90
RECORDED_SEED = 0
RECORDED = BENCH / "recorded.json"
SPANS_DIR = BENCH / "out"
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Rounds:
    """Item i of a seeded workload. Round r holds every class once, in an
    order and with contents drawn from its own seeded generator, so item i
    does not depend on how many items ran before it."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.size = len(wl.classes)
        self._round = (None, [], [])

    def _load(self, i: int) -> int:
        r, k = divmod(i, self.size)
        if self._round[0] != r:
            rng = random.Random(f"{self.wl.name}/{self.seed}/{r}")
            order = rng.sample(self.wl.classes, self.size)
            self._round = (r, order, [self.wl.make(rng, cls) for cls in order])
        return k

    def __getitem__(self, i: int) -> dict:
        k = self._load(i)
        return self._round[2][k]

    def class_of(self, i: int):
        k = self._load(i)
        return self._round[1][k]


class Item:
    __slots__ = ("ns", "speed", "input_digest", "digest", "problems", "output")

    def __init__(self, ns, speed, inp, output, problems):
        self.ns = ns  # at baseline machine speed: wall time x speed
        self.speed = speed
        self.input_digest = digest(inp)
        self.digest = digest(output)
        self.output = output
        self.problems = problems


def run_item(wl, inp, i: int, tracer=None) -> Item:
    args = wl.prepare(inp)
    raw = error = None
    span = tracer.item_span(i) if tracer else contextlib.nullcontext()
    before = probe()
    with span:
        start = time.perf_counter_ns()
        try:
            raw = wl.run(args)
        except Exception as exc:  # an item that raises is a failed item
            error = f"{type(exc).__name__}: {exc}"
        ns = time.perf_counter_ns() - start
    speed = 2 * PROBE_NS / (before + probe())
    if error is None:
        try:
            output = wl.output(raw)
            problems = wl.check(inp, output)
        except Exception as exc:  # malformed output is a failed item
            output, problems = {"malformed": repr(raw)[:500]}, [f"{type(exc).__name__}: {exc}"]
    else:
        output, problems = {"error": error}, [error]
    return Item(ns * speed, speed, inp, output, problems)


def schedule(rounds: Rounds, seconds: float, items: int | None):
    """Items 0, 1, ... until ``items`` are done or, without a fixed count,
    until ``seconds`` have passed, at least MIN_ITEMS ran, and the current
    round is complete."""
    end = time.perf_counter() + seconds
    i = 0
    while True:
        if items is not None:
            if i >= items:
                return
        elif i % rounds.size == 0 and i >= MIN_ITEMS and time.perf_counter() >= end:
            return
        yield i, rounds[i]
        i += 1


def recorded_mismatches(name: str, seed: int, done: list[Item]) -> dict[int, str]:
    """On the recorded seed, inputs and outputs must match the committed
    digests item by item; on other seeds only the identities apply."""
    if seed != RECORDED_SEED:
        return {}
    rec = json.loads(RECORDED.read_text())[name]
    bad = {}
    for i, (it, (want_in, want_out)) in enumerate(zip(done, rec)):
        if it.input_digest != want_in:
            bad[i] = f"input digest {it.input_digest} != recorded {want_in}"
        elif it.digest != want_out:
            bad[i] = f"output digest {it.digest} != recorded {want_out}"
    return bad


def set_up(name: str, seed: int) -> Rounds:
    """Generate the first round and warm up on the smallest classes."""
    wl = WORKLOADS[name]
    rounds = Rounds(wl, seed)
    rounds[0]
    rng = random.Random(f"{name}/{seed}/warm-up")
    for cls in wl.warmup_classes:
        run_item(wl, wl.make(rng, cls), -1)
    return rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool, items: int | None = None) -> dict:
    """Set up, run the loop, and return the result; the ``ready`` field
    is the CLOCK_MONOTONIC time at which set-up ended."""
    rounds = set_up(name, seed)
    wl = rounds.wl
    ready = time.monotonic()
    problems: dict[int, list[str]] = {}
    if trace:
        # each item runs traced and untraced back to back, in alternating
        # order, so drift in machine speed cancels out of the overhead
        tracer = Tracer()
        done, plain = [], []
        for i, inp in schedule(rounds, seconds, items):
            for traced in (i % 2 == 0, i % 2 == 1):
                if traced:
                    with tracer.active():
                        done.append(run_item(wl, inp, i, tracer))
                else:
                    plain.append(run_item(wl, inp, i))
        for i, (a, b) in enumerate(zip(done, plain)):
            if a.digest != b.digest:
                problems.setdefault(i, []).append(f"traced output {a.digest} != untraced {b.digest}")
        tracer.write(SPANS_DIR / f"spans-{name}-seed{seed}.json.gz")
        extra = {
            "trace.overhead_ratio": sum(it.ns for it in done) / max(1, sum(it.ns for it in plain)),
            "cli.output_bytes_per_item": statistics.fmean(
                it.output.get("stdout_bytes", 0) for it in done
            ),
        }
        metrics = tracer.metrics(PER_LAYER, len(done), extra)
    else:
        done, by_class = [], {}
        for i, inp in schedule(rounds, seconds, items):
            done.append(run_item(wl, inp, i))
            by_class.setdefault(rounds.class_of(i), []).append(done[-1].ns / 1e6)
        ms = [it.ns / 1e6 for it in done]
        deciles = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
        # a round in which every class costs its median: a burst of machine
        # noise during a few items does not move it, as it would a mean
        round_ms = sum(statistics.median(v) for v in by_class.values())
        metrics = {
            "items_per_s": len(by_class) / (round_ms / 1e3),
            "item_ms_p50": deciles[4],
            "item_ms_p90": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    metrics["machine_speed"] = statistics.median(it.speed for it in done)
    for i, it in enumerate(done):
        if it.problems:
            problems.setdefault(i, []).extend(it.problems)
    for i, p in recorded_mismatches(name, seed, done).items():
        problems.setdefault(i, []).append(p)
    return {
        "ready": ready,
        "attempted": len(done),
        "failed": len(problems),
        "metrics": metrics,
        "problems": [f"item {i}: {p}" for i, ps in sorted(problems.items()) for p in ps][:20],
    }


def record() -> None:
    """Write the input and output digests of the first MIN_ITEMS items of
    every workload on the recorded seed."""
    out = {}
    for name, wl in WORKLOADS.items():
        rounds = Rounds(wl, RECORDED_SEED)
        done = [run_item(wl, rounds[i], i) for i in range(MIN_ITEMS)]
        bad = [p for it in done for p in it.problems]
        if bad:
            raise SystemExit(f"{name}: refusing to record failing outputs: {bad[:3]}")
        out[name] = [[it.input_digest, it.digest] for it in done]
    lines = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(pair)}" for pair in pairs) + "\n  ]"
        for name, pairs in out.items()
    )
    RECORDED.write_text("{\n" + lines + "\n}\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="run exactly this many items instead of timing")
    ap.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    ap.add_argument("--record", action="store_true", help="rewrite recorded.json")
    args = ap.parse_args(argv)
    if args.record:
        record()
        return
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        set_up(args.workload, args.seed)
        result = {"ready": time.monotonic()}
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.items)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
