"""One benchmark process: import vrlat, set up one workload, run timed passes.

Started by run.py, never by hand.  Each worker is a fresh process, so its
ru_maxrss is the peak RSS of that workload alone.  It prints one JSON
object on stdout:

  setup_s, setup_factor   import of vrlat plus input generation, timed in
               this process, and the host factor measured right after it
  passes       per pass: raw_wall_s, host_factor, wall_s (host-normalized,
               see hostspeed.py), simplices, and with --trace 1 the raw
               per-layer numbers
  raw_items_ms, items_ms  every item time of every pass, raw and divided
               by the host factor around the item
  attempted, failed, notes   the exact correctness checks
  peak_rss_mb  ru_maxrss at exit

With --probe it stops after set-up and prints only the set-up pair.  With
--trace 1 the vrlat functions are wrapped before set-up (recording starts
with the first pass) and the spans are written to --spans-out at exit.
"""

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402  (the bench's own modules, next to this file)
from hostspeed import HostClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args()

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import vrlat
    from vrlat import cli, complexes, formulas, homology, setfam

    vr = {"setfam": setfam, "complexes": complexes, "homology": homology,
          "formulas": formulas, "cli": cli, "package": vrlat}
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer, vr)
    workload = WORKLOADS[args.workload](vr, args.seed, args.quick)
    setup_s = perf_counter() - t0
    clock = HostClock()
    setup_factor = clock.factor()
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_factor": setup_factor}))
        return

    # host samples inside a traced pass would land in a layer's self time
    checkpoint = (lambda: None) if tracer else clock.checkpoint
    passes, items, attempted, failed, notes = [], [], 0, 0, []
    deadline = perf_counter() + args.seconds
    while True:
        started = perf_counter()
        clock.start_pass()
        if tracer:
            tracer.begin_pass()
        t_ns = perf_counter_ns()
        if tracer:
            item_ns, simplices, results = tracer.span(
                "pass", workload.work, checkpoint)
        else:
            item_ns, simplices, results = workload.work(checkpoint)
        raw_ns = perf_counter_ns() - t_ns - clock.sampling_ns
        factor = clock.end_pass()
        # each item is normalized by the host samples around it; the rest of
        # the pass (task set-up, reports, glue) by the pass's own factor
        norm_ns = [dur / clock.factor_near(t, t + dur) for t, dur in item_ns]
        rest_ns = max(0, raw_ns - sum(dur for _, dur in item_ns))
        record = {"raw_wall_s": raw_ns / 1e9,
                  "wall_s": (sum(norm_ns) + rest_ns / factor) / 1e9,
                  "host_factor": factor, "simplices": simplices}
        if tracer:
            record["layers"] = tracer.end_pass()
        a, f, n = workload.check(results)
        del results
        attempted, failed, notes = attempted + a, failed + f, notes + n
        items += [(dur / 1e6, norm / 1e6)
                  for (_, dur), norm in zip(item_ns, norm_ns)]
        record["pass_s"] = perf_counter() - started
        passes.append(record)
        # start another pass only if a typical one still fits the budget
        typical = statistics.median(p["pass_s"] for p in passes)
        if perf_counter() + typical > deadline:
            break

    if tracer and args.spans_out:
        tracer.dump(args.spans_out)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_factor": setup_factor,
        "passes": passes,
        "raw_items_ms": [raw for raw, _ in items],
        "items_ms": [norm for _, norm in items],
        "attempted": attempted,
        "failed": failed,
        "notes": notes[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main()
