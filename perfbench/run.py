"""vrlat benchmark: two workloads, exact checks, end-to-end or per-layer metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload verify-all --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload int-batch --seed 1 --seconds 55 --trace 1
  python3 perfbench/run.py --selfcheck

--trace 0 prints the end-to-end metrics.  It starts four set-up probes and
one measuring worker, each a fresh process (see worker.py), and spends
--seconds in the measuring worker.  --trace 1 prints the per-layer metrics.
It splits --seconds between an untraced worker and a traced one and
compares their pass walls for the tracing overhead; every other per-layer
number comes from the traced worker.  --selfcheck runs every workload
shrunk, untraced and traced twice, and checks that every exact count
repeats; it takes a few seconds.

Every time it reports is host-normalized: divided by the factor by which a
fixed reference kernel ran slower than its reference time during the same
pass (see hostspeed.py).  The raw medians are printed beside them.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
whenever that line is printed, and 1 when the benchmark itself could not run.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, LAYERS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
# a run must end within 180 s; stay clear of that
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "simplices_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(workload, seed, seconds, deadline, *, trace=0, quick=False,
               probe=False, spans_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if probe:
        cmd.append("--probe")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a worker could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the {RUN_LIMIT_S} s limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} worker printed no result")


def median_pass(result: dict, key: str) -> float:
    return statistics.median(p[key] for p in result["passes"])


def item_percentiles(items_ms: list[float]) -> tuple[float, float, int]:
    """Median, nearest-rank 95th percentile, and the items above the latter."""
    ordered = sorted(items_ms)
    p95 = ordered[math.ceil(0.95 * len(ordered)) - 1]
    return statistics.median(ordered), p95, sum(1 for t in ordered if t > p95)


def end_to_end(workload, seed, seconds, quick, deadline):
    probes = [
        run_worker(workload, seed, seconds, deadline, quick=quick, probe=True)
        for _ in range(SETUP_PROBES)
    ]
    res = run_worker(workload, seed, seconds, deadline, quick=quick)
    setups = probes + [res]
    p50, p95, tail = item_percentiles(res["items_ms"])
    raw_p50, raw_p95, _ = item_percentiles(res["raw_items_ms"])
    metrics = {
        "wall_s": median_pass(res, "wall_s"),
        "setup_s": statistics.median(p["setup_s"] / p["setup_factor"]
                                     for p in setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "simplices_per_s": statistics.median(
            p["simplices"] / p["wall_s"] for p in res["passes"]),
        "item_p50_ms": p50,
        "item_p95_ms": p95,
    }
    info = [
        f"passes {len(res['passes'])}, items {len(res['items_ms'])}, "
        f"items above p95 {tail}"
        + ("" if tail >= 10 else " (under 10: p95 is indicative only)"),
        f"fail_frac {res['failed'] / max(res['attempted'], 1):.6g} "
        f"({res['failed']} failed of {res['attempted']} checked)",
        "host factor per pass "
        + " ".join(f"{p['host_factor']:.3f}" for p in res["passes"])
        + f"; at set-up {statistics.median(p['setup_factor'] for p in setups):.3f}",
        f"raw (not host-normalized): wall_s {median_pass(res, 'raw_wall_s'):.6g}"
        f", setup_s {statistics.median(p['setup_s'] for p in setups):.6g}"
        f", item_p50_ms {raw_p50:.6g}, item_p95_ms {raw_p95:.6g}",
    ]
    return metrics, END_TO_END_UNITS, res, info


def per_layer(workload, seed, seconds, quick, deadline):
    plain = run_worker(workload, seed, seconds / 2, deadline, quick=quick)
    spans_out = OUT / f"spans-{workload}-seed{seed}.json"
    traced = run_worker(workload, seed, seconds / 2, deadline, trace=1,
                        quick=quick, spans_out=spans_out)
    layers = []
    for p in traced["passes"]:
        lay = {name: value / p["host_factor"] if PER_LAYER_UNITS[name] == "s"
               else value
               for name, value in p["layers"].items() if name in PER_LAYER_UNITS}
        lay["self_s"] = {k: v / p["host_factor"]
                         for k, v in p["layers"]["self_s"].items()}
        layers.append(lay)
    for name in EXACT_COUNTS:
        if len({lay[name] for lay in layers}) != 1:
            raise BenchError(f"count {name} differs between passes: "
                             f"{[lay[name] for lay in layers]}")
    metrics = {
        name: layers[0][name] if name in EXACT_COUNTS
        else statistics.median(lay[name] for lay in layers)
        for name in PER_LAYER_UNITS if name != "trace_overhead_frac"
    }
    metrics["trace_overhead_frac"] = (
        median_pass(traced, "wall_s") / median_pass(plain, "wall_s") - 1)
    self_s = {layer: statistics.median(lay["self_s"][layer] for lay in layers)
              for layer in (*LAYERS, "bench")}
    info = [f"traced passes {len(layers)}, spans written to "
            f"{spans_out.relative_to(ROOT)}",
            "host factor per traced pass "
            + " ".join(f"{p['host_factor']:.3f}" for p in traced["passes"]),
            "self time per layer (s, host-normalized, median pass): "
            + ", ".join(f"{k} {v:.4f}" for k, v in self_s.items())]
    res = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"],
           "notes": plain["notes"] + traced["notes"]}
    return metrics, PER_LAYER_UNITS, res, info


def report(workload, metrics, units, res, info) -> None:
    print(f"workload {workload}")
    for line in info:
        print(f"  {line}")
    for note in res["notes"]:
        print(f"  CHECK FAILED {note}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {units[name]}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def selfcheck(seed: int, deadline) -> bool:
    """Every workload shrunk, end to end and traced twice; counts must repeat."""
    ok = True
    for workload in WORKLOADS:
        e2e = end_to_end(workload, seed, 0, True, deadline)
        first = per_layer(workload, seed, 0, True, deadline)
        second = per_layer(workload, seed, 0, True, deadline)
        for got in (e2e, first, second):
            report(workload, *got)
            ok &= got[2]["failed"] == 0
        for name in EXACT_COUNTS:
            a, b = first[0][name], second[0][name]
            if a != b:
                print(f"  COUNT DIFFERS {name}: {a} then {b}")
                ok = False
    print("selfcheck " + ("passed" if ok else "FAILED"))
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload shrunk, with every check")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required unless --selfcheck is given")
    if not (ROOT / "src" / "vrlat" / "__init__.py").is_file():
        print(f"vrlat sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = monotonic() + RUN_LIMIT_S
    try:
        if args.selfcheck:
            return 0 if selfcheck(args.seed, deadline) else 1
        measure = per_layer if args.trace else end_to_end
        got = measure(args.workload, args.seed, args.seconds, False, deadline)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    report(args.workload, *got)
    return 0


if __name__ == "__main__":
    sys.exit(main())
