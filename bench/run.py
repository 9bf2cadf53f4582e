"""bohrlab benchmark: one seeded workload in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's src/.  One process and one thread: each operation starts when the
previous one returns.  The operations of one round (see workloads.py) repeat
until their summed run time is as near --seconds as whole rounds allow; a
round is never cut short.  With --trace 0 the set-up is timed again every
SETUP_INTERVAL seconds of the run, between operations, so that setup_s
averages over the machine's states during the whole run.
Outputs are reduced to small records right after each call and checked
against independent computations (checks.py) after the loop, outside all
timing.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports the per-layer metrics of the traced rounds,
including the tracing overhead against the untraced ones.  A result file
and, for --trace 1, the spans of the first traced round are written under
.bench_out/ in the checkout.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# One thread: when numpy loads, OpenBLAS would otherwise start a worker
# thread per CPU.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_FIRST = 3
SETUP_INTERVAL = 2.0
TRIM = 0.1
MODULES = ("family", "multiindex", "majorant", "radius", "bounds", "asymptotics", "cli")


def import_library():
    """Import bohrlab afresh from the checkout (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "bohrlab" or m.startswith("bohrlab.")]:
        del sys.modules[name]
    importlib.import_module("bohrlab")
    lib = SimpleNamespace(**{m: importlib.import_module("bohrlab." + m) for m in MODULES})
    if SRC not in Path(lib.family.__file__).resolve().parents:
        raise ImportError(f"bohrlab was imported from {lib.family.__file__}, not {SRC}")
    return lib


def trimmed_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    TRIM share of them (the first set-up of a process, with cold caches,
    is the highest)."""
    values = sorted(values)
    k = int(len(values) * TRIM)
    values = values[k : len(values) - k]
    return sum(values) / len(values)


def timed_setup(workload, seed):
    """Import plus building the workload's inputs, families included."""
    gc.collect()
    start = time.perf_counter()
    lib = import_library()
    ops = workloads.build(workload, lib, seed)
    return time.perf_counter() - start, lib, ops


class Loop:
    """Runs rounds of operations and keeps what the metrics need."""

    def __init__(self, workload, ops, between=None):
        self.workload = workload
        self.ops = ops
        self.between = between  # called before each untraced operation
        self.records = [Counter() for _ in ops]  # per op: record -> times seen
        self.durations = {False: [], True: []}  # traced? -> seconds per op
        self.op_durations = [[] for _ in ops]  # per op: untraced seconds
        self.rounds = {False: 0, True: 0}
        self.round_seconds = {False: [], True: []}

    def time_spent(self, traced):
        return sum(self.round_seconds[traced])

    def round(self, tracer=None):
        traced = tracer is not None
        durations = self.durations[traced]
        before = len(durations)
        for i, op in enumerate(self.ops):
            if traced:
                tracer.open("op." + op.kind)
            elif self.between is not None:
                self.between()
            start = time.perf_counter()
            try:
                out = op.call()
                raised = None
            except Exception as exc:  # the check decides; a raise is a result
                raised = exc
            elapsed = time.perf_counter() - start
            if traced:
                tracer.close()
            durations.append(elapsed)
            if raised is not None:
                record = workloads.raised_record(raised)
            else:
                record = op.digest(out) if op.digest else out
                if traced and self.workload == "cli_sweep":
                    tracer.counts["cli.bytes_out"] += len(out[1].encode())
            out = None  # free large outputs before the next call
            self.records[i][record] += 1
            if not traced:
                self.op_durations[i].append(elapsed)
        self.rounds[traced] += 1
        self.round_seconds[traced].append(sum(durations[before:]))

    def check(self):
        """(attempted, failed, unexpected failures as text)."""
        attempted = failed = 0
        unexpected = []
        for op, seen in zip(self.ops, self.records):
            for record, times in seen.items():
                attempted += times
                try:
                    ok = bool(op.check(record))
                    why = "check failed"
                except Exception as exc:  # a check that cannot run is a failure
                    ok, why = False, f"check raised {exc!r}"
                if not ok:
                    failed += times
                    if op.fault is None:
                        unexpected.append(f"{op.kind}: {why} on {str(record)[:200]}")
        return attempted, failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bohrlab" / "__init__.py").is_file():
        print(f"error: no bohrlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups = []
    last_setup = 0.0

    def setup():
        nonlocal last_setup
        seconds, lib, ops = timed_setup(args.workload, args.seed)
        setups.append(seconds)
        last_setup = time.perf_counter()
        return lib, ops

    def setup_when_due():
        # the operations of the first set-up stay in use; later ones only time
        if time.perf_counter() - last_setup >= SETUP_INTERVAL:
            setup()

    lib, ops = setup()
    build_ms = 0.0
    if args.trace:
        # one more, traced set-up for family.build_ms; its inputs are used
        lib = import_library()
        build_tracer = spans.Tracer()
        spans.install(build_tracer, lib)
        ops = workloads.build(args.workload, lib, args.seed)
        build_tracer.restore()
        build_ms = 1e3 * sum(build_tracer.durations["family.build"])
    else:
        for _ in range(SETUP_FIRST - 1):
            setup()

    loop = Loop(args.workload, ops, None if args.trace else setup_when_due)
    tracer = spans.Tracer() if args.trace else None
    wall_start = time.perf_counter()
    while True:
        if args.trace and loop.rounds[False] > loop.rounds[True]:
            spans.install(tracer, lib)
            loop.round(tracer)
            tracer.restore()
            tracer.keep_spans = False
        else:
            loop.round()
        spent = loop.time_spent(False) + loop.time_spent(True)
        rounds = loop.rounds[False] + loop.rounds[True]
        balanced = loop.rounds[True] == (loop.rounds[False] if args.trace else 0)
        # stop at the whole number of rounds whose total is nearest --seconds
        if spent + 0.5 * spent / rounds >= args.seconds and balanced:
            break
    wall = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, unexpected = loop.check()
    plain = loop.durations[False]
    lines = [
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(ops)} ops a round, {loop.rounds[False]} untraced + {loop.rounds[True]} "
        f"traced rounds, {loop.time_spent(False) + loop.time_spent(True):.2f} s timed, "
        f"{wall:.2f} s wall",
        f"{'kind':<24}{'ops/round':>10}{'p50 ms':>12}",
    ]
    for kind in dict.fromkeys(op.kind for op in ops):
        values = [d for op, ds in zip(ops, loop.op_durations) if op.kind == kind for d in ds]
        per_round = len(values) // loop.rounds[False]
        lines.append(f"{kind:<24}{per_round:>10}{1e3 * statistics.median(values):>12.4f}")
    faults = sorted({op.fault for op in ops if op.fault})
    lines.append(f"failed {failed} of {attempted}; known faults kept as failures:")
    lines += [f"  - {fault}" for fault in faults]
    if unexpected:
        lines.append("UNEXPECTED FAILURES:")
        lines += [f"  - {text}" for text in unexpected]

    if args.trace:
        overhead = 100.0 * (loop.time_spent(True) / loop.time_spent(False) - 1.0)
        layer = spans.layer_metrics(tracer, len(loop.durations[True]), build_ms, overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        # The machine switches between a fast and a slow state every few
        # seconds, so one operation's times are bimodal and a median over
        # them jumps between the two modes.  Each operation's times are
        # therefore averaged over the run, which moves in proportion to the
        # share of time spent in each state, and the median is taken over
        # the operations of a round.
        typical = [statistics.fmean(values) for values in loop.op_durations]
        metrics = {
            "setup_s": {"value": trimmed_mean(setups), "unit": "s"},
            "ops_per_s": {"value": len(plain) / sum(plain), "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(typical), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if len(plain) >= 100:
            lines.append(
                f"reference only: op_ms_p90 "
                f"{1e3 * statistics.quantiles(plain, n=10, method='inclusive')[8]:.4f} ms "
                f"over {len(plain)} operations"
            )
    lines.append(f"{'metric':<36}{'value':>16}  unit")
    for name, m in metrics.items():
        lines.append(f"{name:<36}{m['value']:>16.6g}  {m['unit']}")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(
            {**result, "report": lines, "setup_s_all": setups, "round_s": loop.round_seconds},
            indent=1,
        ) + "\n"
    )
    if args.trace:
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as handle:
            for span_id, name, start, end, parent in tracer.spans:
                handle.write(json.dumps([span_id, name, start, end, parent]) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
