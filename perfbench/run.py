"""Benchmark of codegraph: certification, classification and search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-n4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

A run times the workload's cold set-up once in this process and at
least twice in fresh interpreters, spread between timed passes that
repeat until ``--seconds`` of pass time have gone by (at least two
passes), and reports medians.  Every timed set-up and pass runs under a
``speed.Probe``, and the reported times are scaled to the reference
host speed; the unscaled medians are printed on the line before the
result.  The last line of its output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A traced run makes one pass
under the span recorder instead, between two untraced passes that give
the tracing overhead, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import program
import spans
import speed
from workloads import WORKLOADS, OpFailure

HERE = Path(__file__).resolve().parent
SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())
# Besides the run's own cold set-up, cold set-ups run in fresh
# interpreters until at least COLD_CHILDREN of them and SETUP_SECONDS of
# set-up time have been measured, so a short set-up is sampled more often.
COLD_CHILDREN = 2
SETUP_SECONDS = 1.5
MIN_PASSES = 2


def cold_setup_in_child(name: str) -> tuple[float, float]:
    """A cold set-up in a fresh interpreter, where no lru_cache or
    context cache of this process can help it: (scaled, elapsed) s."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--setup-only"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    child = json.loads(done.stdout.splitlines()[-1])
    return child["setup_s"], child["elapsed_s"]


def probed(fn, *args) -> tuple[float, float, object]:
    """Run ``fn`` under a speed probe: (scaled s, elapsed s, its result)."""
    with speed.Probe() as probe:
        result = fn(*args)
    return probe.scaled, probe.elapsed, result


def timed_setup(wl, tr) -> float:
    t0 = perf_counter()
    wl.setup(tr)
    return perf_counter() - t0


def timed_pass(wl, tr) -> tuple[float, list]:
    t0 = perf_counter()
    results = wl.run_pass(tr)
    return perf_counter() - t0, results


def measure(name: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    wl = WORKLOADS[name]()
    scaled, elapsed, _ = probed(wl.setup, spans.NULL)
    setups, raw_setups = [scaled], [elapsed]
    children: list[tuple[float, float]] = []
    wl.prepare(seed)
    walls: list[float] = []
    raw_walls: list[float] = []
    errors: list[str] = []
    failed = 0
    # at least two passes, so that the peak memory always includes one
    # pass's results held beside the next pass
    while len(walls) < MIN_PASSES or sum(raw_walls) < seconds:
        wall, raw_wall, results = probed(wl.run_pass, spans.NULL)
        walls.append(wall)
        raw_walls.append(raw_wall)
        failed += sum(isinstance(r, OpFailure) for r in results)
        if len(walls) == 1:
            first = results
        else:
            errors += oracle.check_repeats(first, results, f"{name} pass {len(walls) - 1}")
        # the host's speed drifts over tens of seconds, so the fresh
        # set-ups are spread between the passes: child k runs once k
        # thirds of the pass time are done, and both kinds of sample
        # span the whole run
        due = min(COLD_CHILDREN, int(sum(raw_walls) * (COLD_CHILDREN + 1) / seconds))
        while len(children) < due:
            children.append(cold_setup_in_child(name))
    while len(children) < COLD_CHILDREN or sum(raw for _, raw in children) < SETUP_SECONDS:
        children.append(cold_setup_in_child(name))
    setups += [scaled for scaled, _ in children]
    raw_setups += [raw for _, raw in children]
    print(f"{name}: {len(walls)} passes, {len(setups)} set-ups; unscaled medians:"
          f" wall {statistics.median(raw_walls):.4f} s, setup {statistics.median(raw_setups):.4f} s")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors += wl.check(first)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_mib,
    }
    return metrics, len(walls) * len(first), failed, errors


def measure_traced(name: str, seed: int) -> tuple[dict, int, int, list[str]]:
    wl = WORKLOADS[name]()
    tr = spans.Tracer()
    setup_s = timed_setup(wl, tr)
    wl.prepare(seed)
    # the traced pass sits between two untraced ones, so the overhead is
    # measured against passes made moments before and after it
    untraced = [timed_pass(wl, spans.NULL)[0]]
    pass_s, results = timed_pass(wl, tr)
    untraced.append(timed_pass(wl, spans.NULL)[0])
    breakdown = wl.breakdown(tr) if hasattr(wl, "breakdown") else None
    errors = wl.check(results, breakdown)
    metrics = {}
    for m in SPEC["per_layer"]:
        key = m["name"]
        if key == "trace.pass_s":
            metrics[key] = pass_s
        elif key == "trace.overhead_s":
            metrics[key] = pass_s - statistics.mean(untraced)
        elif m["unit"] == "s":
            metrics[key] = tr.seconds.get(key.removesuffix(".s"), 0.0)
        else:
            metrics[key] = tr.counts.get(key, 0)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "setup_s": setup_s, "pass_s": pass_s,
              "untraced_pass_s": untraced, **tr.as_dict()}
    (out / f"trace-{name}-seed{seed}.json").write_text(json.dumps(record, indent=2) + "\n")
    everything = results + (breakdown or [])
    failed = sum(isinstance(r, OpFailure) for r in everything)
    return metrics, len(everything), failed, errors


def units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def report(metrics: dict, attempted: int, failed: int, errors: list[str]) -> dict:
    unit = units()
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process, so each reports its own peak
    memory; prints one table per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:44s} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}/{key}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up of the workload in this process and print it")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_only:
        if args.workload == "all":
            parser.error("--setup-only needs one workload")
        scaled, elapsed, _ = probed(WORKLOADS[args.workload]().setup, spans.NULL)
        print(json.dumps({"setup_s": scaled, "elapsed_s": elapsed}))
        return
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    elif args.trace:
        result = report(*measure_traced(args.workload, args.seed))
    else:
        result = report(*measure(args.workload, args.seed, args.seconds))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
