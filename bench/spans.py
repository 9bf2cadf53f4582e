"""In-memory span recorder that wraps bohrlab's public functions.

Spans are (name, start, end, parent) with times from time.perf_counter.
A span's self time is its duration minus the time covered by its direct
children.  The wrappers are installed on the module (or class) attribute
that callers look up, so calls made inside the library are traced too,
and removed again by restore(), so untraced rounds run the original code.
"""

import functools
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.keep_spans = True
        self.spans = []  # closed spans kept for the trace file
        self.self_time = Counter()  # name -> seconds of self time
        self.calls = Counter()  # name -> number of spans
        self.durations = defaultdict(list)  # name -> seconds, for medians
        self.counts = Counter()  # free-form counters
        self._stack = []  # open spans: [id, name, start, parent id, child seconds]
        self._next_id = 0
        self._patches = []

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, name, time.perf_counter(), parent, 0.0])
        self._next_id += 1

    def close(self):
        end = time.perf_counter()
        span_id, name, start, parent, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        self.durations[name].append(duration)
        if self.keep_spans:
            self.spans.append((span_id, name, start, end, parent))
        return duration

    def wrap(self, owner, attr, name, note=None):
        """Replace owner.attr by a traced wrapper; note(tracer, args, result)
        runs after the span closes, for counters read off the result."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
            if note is not None:
                note(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def median_ms(self, name):
        values = self.durations.get(name)
        return 1e3 * statistics.median(values) if values else 0.0


def _ball_path(f):
    """Path powered_majorant_ball takes, read off the family's structure:
    one positive term (AM-GM) or only degree-1 terms closed form,
    otherwise the multistart optimizer."""
    degrees = [sum(a) for a, v in f.entries.items() if v > 0.0 and sum(a) >= 1]
    if len(degrees) <= 1 or all(k == 1 for k in degrees):
        return "closed"
    return "optimizer"


def _note_ball(tracer, args, result):
    path = _ball_path(args[0])
    tracer.calls["majorant.ball_" + path] += 1
    tracer.durations["majorant.ball_" + path].append(tracer.durations["majorant.ball"][-1])


def _note_bisect(tracer, args, result):
    tracer.counts["radius.solves"] += 1
    tracer.counts["radius.evaluations"] += result.evaluations


def _note_certificate(tracer, args, result):
    tracer.counts["bounds.series_evals"] += result.evaluations


def _note_enumerate(tracer, args, result):
    tracer.counts["multiindex.indices"] += len(result)


FAMILY_BUILDERS = (
    "moebius",
    "extremal_g",
    "explicit",
    "linear_form",
    "normalized_monomial",
    "rescale",
)


def install(tracer, lib):
    """Wrap the public functions of every layer the workloads reach."""
    w = tracer.wrap
    w(lib.family.CoefficientFamily, "degree_power_sums", "family.degree_power_sums")
    for name in FAMILY_BUILDERS:
        w(lib.family, name, "family.build")
    w(lib.multiindex, "enumerate_degree", "multiindex.enumerate_degree", _note_enumerate)
    w(lib.multiindex, "multinomial_weight", "multiindex.multinomial_weight")
    w(lib.multiindex, "multinomial_identity_residual", "multiindex.identity_residual")
    w(lib.multiindex, "count_and_bound", "multiindex.count_and_bound")
    w(lib.majorant, "powered_majorant_polydisk", "majorant.polydisk")
    w(lib.majorant, "powered_majorant_ball", "majorant.ball", _note_ball)
    w(lib.radius, "solve_bohr_radius", "radius.solve")
    w(lib.radius, "pluriharmonic_radius", "radius.pluriharmonic")
    w(lib.radius, "bisect_unit_crossing", "radius.bisect", _note_bisect)
    w(lib.bounds, "certified_lower_bound", "bounds.certify", _note_certificate)
    w(lib.bounds, "coefficient_bound_check", "bounds.coeff_check")
    w(lib.bounds, "witness_upper_linear_form", "bounds.witness")
    w(lib.bounds, "sandwich_check", "bounds.sandwich")
    w(lib.asymptotics, "sweep", "asymptotics.sweep")
    w(lib.asymptotics, "fit_exponent", "asymptotics.fit")
    w(lib.asymptotics, "h2_limit_check", "asymptotics.limit_check")
    w(lib.cli, "parse_config", "cli.parse")
    w(lib.cli, "run", "cli.run")
    w(lib.cli, "emit_json", "cli.emit")
    w(lib.cli, "emit_sweep_csv", "cli.emit")


def layer_metrics(tracer, ops, build_ms, overhead_pct):
    """Per-layer figures of one traced run; `ops` is the number of traced
    operations, over which per-operation figures are averaged."""
    per_op = 1.0 / max(ops, 1)
    ms = 1e3 * per_op
    st, calls, counts = tracer.self_time, tracer.calls, tracer.counts
    enumerate_s = sum(tracer.durations["multiindex.enumerate_degree"])
    solves = counts["radius.solves"]
    return {
        "radius.evals_per_solve": (counts["radius.evaluations"] / solves if solves else 0.0, "count"),
        "radius.self_ms": (ms * (st["radius.solve"] + st["radius.pluriharmonic"] + st["radius.bisect"]), "ms/op"),
        "majorant.polydisk_calls": (per_op * calls["majorant.polydisk"], "calls/op"),
        "majorant.polydisk_us_p50": (1e3 * tracer.median_ms("majorant.polydisk"), "us"),
        "family.degree_power_sums_self_ms": (ms * st["family.degree_power_sums"], "ms/op"),
        "majorant.ball_calls": (per_op * calls["majorant.ball"], "calls/op"),
        "majorant.ball_ms_p50": (tracer.median_ms("majorant.ball"), "ms"),
        "majorant.ball_closed_calls": (per_op * calls["majorant.ball_closed"], "calls/op"),
        "majorant.ball_closed_ms_p50": (tracer.median_ms("majorant.ball_closed"), "ms"),
        "majorant.ball_optimizer_calls": (per_op * calls["majorant.ball_optimizer"], "calls/op"),
        "majorant.ball_optimizer_ms_p50": (tracer.median_ms("majorant.ball_optimizer"), "ms"),
        "family.build_ms": (build_ms, "ms"),
        "multiindex.indices_enumerated": (per_op * counts["multiindex.indices"], "indices/op"),
        "multiindex.enumerate_self_ms": (ms * st["multiindex.enumerate_degree"], "ms/op"),
        "multiindex.indices_per_s": (counts["multiindex.indices"] / enumerate_s if enumerate_s else 0.0, "1/s"),
        "multiindex.weight_calls": (per_op * calls["multiindex.multinomial_weight"], "calls/op"),
        "bounds.series_evals": (per_op * counts["bounds.series_evals"], "evals/op"),
        "bounds.certify_self_ms": (ms * st["bounds.certify"], "ms/op"),
        "bounds.coeff_check_self_ms": (ms * st["bounds.coeff_check"], "ms/op"),
        "asymptotics.sweep_self_ms": (ms * st["asymptotics.sweep"], "ms/op"),
        "asymptotics.fit_self_ms": (ms * st["asymptotics.fit"], "ms/op"),
        "cli.parse_self_ms": (ms * st["cli.parse"], "ms/op"),
        "cli.emit_self_ms": (ms * st["cli.emit"], "ms/op"),
        "cli.bytes_out": (per_op * counts["cli.bytes_out"], "B/op"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
