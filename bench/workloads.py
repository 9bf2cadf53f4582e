"""The four seeded workloads.

build(name, lib, seed) returns the list of operations of one round.  Every
input comes from numpy's generator seeded with (seed, workload index);
continuous parameters are drawn by stratified sampling (one draw per
equal-width stratum), so each round has the same make-up on every seed and
only the values inside each stratum move.  Each operation carries:

  call    the timed call into the library (through lib's module attributes,
          so the tracer's wrappers see it);
  digest  a small hashable record of the output, made right after the call
          and outside the timing (for enumerations this is where the rows
          are inspected, so they can be freed at once);
  check   record -> bool, the independent check from checks.py;
  fault   None, or the known fault that makes this fixed operation fail.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

import checks

WORKLOADS = ("polydisk_solve", "ball_solve", "cli_sweep", "combinatorics")

OVERFLOW_FAULT = (
    "extremal_g(10^4, 0.25): math.expm1 in family.geometric_block_total "
    "raises an untyped OverflowError"
)
MOEBIUS_FAULT = "moebius tail a^k is off by the factor (1-a^2)/a"

T_VALUES = (1.0, 1.5, 2.0, 3.0)
P_VALUES = (0.5, 1.0, 1.5)
BALL_BASE_SEED = 3
BALL_JITTER = 0.02
BALL_NEAR_FACE_CELL = 7


@dataclass
class Op:
    kind: str
    call: object
    check: object
    digest: object = None
    fault: str | None = None


def stratified(rng, m, lo=0.0, hi=1.0):
    """m draws, the i-th uniform on the i-th of m equal strata of [lo, hi]."""
    u = (np.arange(m) + rng.random(m)) / m
    return [float(lo + (hi - lo) * x) for x in u]


def solve_record(res):
    return (res.value, res.method)


def raised_record(exc):
    return ("raised", type(exc).__name__)


def sparse_entries(rng, n, max_degree, n_terms, lo, hi):
    """n_terms distinct multi-indices of degree 1..max_degree in n
    variables with values uniform on [lo, hi]."""
    indices = itertools.product(range(max_degree + 1), repeat=n)
    pool = [a for a in indices if 1 <= sum(a) <= max_degree]
    pick = rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False)
    return {pool[i]: float(rng.uniform(lo, hi)) for i in sorted(pick)}


def _solve_op(kind, call, want, fault=None):
    """A radius solve checked against want(), an expected radius computed
    lazily by the check; 1.0 means the solver must report saturation."""

    def check(rec):
        value, method = rec
        expected = want()
        if expected == 1.0:
            return method == "saturated_at_one" and value == 1.0
        return method == "bisection" and checks.check_radius(value, expected)

    return Op(kind, call, check, solve_record, fault)


# ------------------------------------------------------------ polydisk_solve


def _extremal_overflows(n, p):
    """True where the solver's first evaluation overflows math.expm1."""
    v = math.sqrt(-math.expm1(-math.log(2.0) / n))
    s = (v * checks.TOP_RADIUS) ** p
    return -n * math.log1p(-s) > 700.0


def polydisk_ops(lib, rng):
    polydisk = lib.majorant.DomainSpec.polydisk()
    ops = []

    def moebius(a, fault=None):
        f = lib.family.moebius(a)
        return _solve_op(
            "moebius",
            lambda: lib.radius.solve_bohr_radius(f, 1.0, polydisk),
            lambda: checks.moebius_radius(a),
            fault,
        )

    def extremal(n, p, fault=None):
        f = lib.family.extremal_g(n, p)
        return _solve_op(
            "extremal_g",
            lambda: lib.radius.solve_bohr_radius(f, p, polydisk),
            lambda: checks.h2_radius(n, p),
            fault,
        )

    def explicit(n, entries, p):
        f = lib.family.explicit(n, entries)
        return _solve_op(
            "explicit",
            lambda: lib.radius.solve_bohr_radius(f, p, polydisk),
            lambda: checks.polynomial_radius(checks.degree_sums(entries, p), p),
        )

    def pluriharmonic(n, holo, anti, p):
        pair = lib.radius.PluriharmonicFamily(
            holo=lib.family.explicit(n, holo), anti=lib.family.explicit(n, anti)
        )

        def want():
            sums = checks.degree_sums(holo, p)
            for k, s in checks.degree_sums(anti, p).items():
                sums[k] = sums.get(k, 0.0) + s
            return checks.polynomial_radius(sums, p)

        return _solve_op(
            "pluriharmonic",
            lambda: lib.radius.pluriharmonic_radius(pair, p, math.inf),
            want,
        )

    # Moebius solves are the bulk and, at 256 entries and 36 evaluations
    # each, all cost the same: the median operation falls among them.
    ops += [moebius(a) for a in stratified(rng, 28, 0.05, 0.9)]
    ops += [moebius(a, MOEBIUS_FAULT) for a in (0.99, 0.999)]
    for x in stratified(rng, 12, 0.0, 5.0):
        n = max(1, round(10**x))
        p = float(rng.uniform(0.2, 1.95))
        while _extremal_overflows(n, p):  # that region is the fixed fault below
            p = float(rng.uniform(0.2, 1.95))
        ops.append(extremal(n, p))
    ops.append(extremal(10**4, 0.25, OVERFLOW_FAULT))
    for _ in range(6):
        n = int(rng.integers(1, 5))
        entries = sparse_entries(rng, n, 6, int(rng.integers(2, 7)), 0.1, 1.5)
        ops.append(explicit(n, entries, float(rng.uniform(0.5, 1.9))))
    for _ in range(4):
        n = int(rng.integers(1, 5))
        holo = sparse_entries(rng, n, 6, int(rng.integers(2, 7)), 0.1, 1.5)
        anti = sparse_entries(rng, n, 6, int(rng.integers(1, 5)), 0.1, 1.0)
        ops.append(pluriharmonic(n, holo, anti, float(rng.uniform(0.5, 1.9))))
    return ops


# ---------------------------------------------------------------- ball_solve


def _mixed_terms(rng, n, m, p, t):
    """m terms of degree 1..4 in n variables, at least one of degree >= 2,
    scaled so the largest single-term AM-GM maximum at r = 1 is in
    [1.5, 3]: the majorant then crosses 1 strictly inside the ball."""
    while True:
        entries = sparse_entries(rng, n, 4, m, 0.1, 1.5)
        if max(sum(a) for a in entries) >= 2:
            break

    def amgm(alpha, c):
        k = sum(alpha)
        return c**p * math.exp((p / t) * sum(a * math.log(a / k) for a in alpha if a))

    largest = max(amgm(a, c) for a, c in entries.items())
    scale = (float(rng.uniform(1.5, 3.0)) / largest) ** (1.0 / p)
    return [(a, c * scale) for a, c in entries.items()]


def ball_ops(lib, rng):
    ops = []
    ball = lib.majorant.DomainSpec.lt_ball

    def mixed(n, terms, p, t):
        f = lib.family.explicit(n, dict(terms))
        domain = ball(t)
        return Op(
            "mixed",
            lambda: lib.radius.solve_bohr_radius(f, p, domain),
            lambda rec: checks.check_ball_radius(terms, p, t, rec[0], rec[1]),
            solve_record,
        )

    def linear(n, q, t, p):
        f = lib.family.linear_form(n, q, t)
        domain = ball(t)
        return _solve_op(
            "linear_form",
            lambda: lib.radius.solve_bohr_radius(f, p, domain),
            lambda: checks.linear_form_radius(n, q, t, p),
        )

    def monomial(alpha, t, p, sigma):
        f = lib.family.rescale(
            lib.family.normalized_monomial(alpha, t), (sigma,) * len(alpha)
        )
        domain = ball(t)
        return _solve_op(
            "monomial",
            lambda: lib.radius.solve_bohr_radius(f, p, domain),
            lambda: 1.0 / sigma,  # (sigma r)^(kp) crosses 1 at r = 1/sigma
        )

    # One mixed family per (t, p) cell.  The optimizer's cost differs up to
    # tenfold from family to family, so the supports and base values are
    # drawn from a fixed generator; in cell 7 it gives the slow near-face
    # family of CHANGES.md.  The seed permutes the variables and scales each
    # value by a factor uniform on [1 - BALL_JITTER, 1 + BALL_JITTER],
    # except in that cell, whose cost moves severalfold under either change
    # (see README.md).
    base = np.random.default_rng([BALL_BASE_SEED, WORKLOADS.index("ball_solve")])
    for i, (t, p) in enumerate(itertools.product(T_VALUES, P_VALUES)):
        n, m = 2 + i % 2, 2 + i % 5
        terms = _mixed_terms(base, n, m, p, t)
        perm = rng.permutation(n)
        jitter = rng.uniform(1 - BALL_JITTER, 1 + BALL_JITTER, size=len(terms))
        if i != BALL_NEAR_FACE_CELL:
            terms = [
                (tuple(int(alpha[j]) for j in perm), c * float(x))
                for (alpha, c), x in zip(terms, jitter)
            ]
        ops.append(mixed(n, terms, p, t))
    below = [(t, p) for t in T_VALUES for p in P_VALUES if p < t]
    for _ in range(2):
        t, p = below[int(rng.integers(len(below)))]
        q = (2.0, 3.0, math.inf)[int(rng.integers(3))]
        ops.append(linear(int(rng.integers(2, 9)), q, t, p))
    for _ in range(2):
        n = int(rng.integers(1, 5))
        alpha = tuple(int(a) for a in rng.multinomial(int(rng.integers(1, 7)), np.ones(n) / n))
        t = T_VALUES[int(rng.integers(len(T_VALUES)))]
        p = P_VALUES[int(rng.integers(len(P_VALUES)))]
        ops.append(monomial(alpha, t, p, float(rng.uniform(1.2, 3.0))))
    return ops


# ----------------------------------------------------------------- cli_sweep


def cli_call(main, argv):
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _num(x):
    return repr(float(x)) if not math.isinf(x) else "inf"


def _result(rec, command):
    """The parsed result of a successful JSON command, or None."""
    code, out, _ = rec
    if code != 0:
        return None
    doc = json.loads(out)
    return doc["result"] if doc.get("command") == command else None


def _h2_numeric_ok(n, p, value):
    return checks.check_cert_numeric(n, p, 2.0, 1.0, value) and checks.check_h2_sandwich(
        n, p, value
    )


# generator name -> (n, p, value) -> bool, with q = 2 and C = 1
_RECORD_CHECKS = {
    "exact-h2": lambda n, p, v: checks.close(v, checks.h2_radius(n, p)),
    "certify-closed": lambda n, p, v: checks.close(v, checks.cert_closed(n, p, 2.0, 1.0)),
    "certify-numeric": _h2_numeric_ok,
}


def _records_ok(records, ns, p, generator):
    return [r[0] for r in records] == sorted(set(ns)) and all(
        _RECORD_CHECKS[generator](n, p, v) for n, v in records
    )


def _check_exact(n, p):
    def check(rec):
        res = _result(rec, "exact-h2")
        return res is not None and checks.close(res["value"], checks.h2_radius(n, p))

    return check


def _check_residual(n, p, r):
    def check(rec):
        res = _result(rec, "residual")
        want = checks.h2_residual(n, p, r)
        return res is not None and checks.close(res["value"], want, abs_=checks.CLOSED_ABS)

    return check


def _check_witness(n, p, q, t):
    def check(rec):
        res = _result(rec, "witness")
        return (
            res is not None
            and res["method"] == "witness_upper"
            and checks.close(res["value"], checks.witness_radius(n, p, q, t))
        )

    return check


def _check_limit(n, p):
    def check(rec):
        res = _result(rec, "limit-check")
        if res is None:
            return False
        lhs, rhs, rel = checks.limit_check(p, n)
        return (
            checks.close(res["lhs"], lhs)
            and checks.close(res["rhs"], rhs)
            and checks.close(res["rel_err"], rel, rel=0.0, abs_=checks.CLOSED_ABS)
        )

    return check


def _check_certify(n, p):
    def check(rec):
        res = _result(rec, "certify")
        return (
            res is not None
            and res["method"] == "certified_lower"
            and _h2_numeric_ok(n, p, res["value"])
        )

    return check


def _check_sandwich(n, p):
    def check(rec):
        res = _result(rec, "sandwich")
        if res is None:
            return False
        closed = res["lower_closed_form"]["value"]
        numeric = res["lower_numeric"]["value"]
        upper = res["upper"]["value"]
        return (
            res["ok"] is True
            and checks.close(closed, checks.cert_closed(n, p, 2.0, 1.0))
            and checks.check_cert_numeric(n, p, 2.0, 1.0, numeric)
            and checks.close(upper, checks.h2_radius(n, p))
            and closed <= numeric <= upper
        )

    return check


def _check_sweep_json(ns, p, generator):
    def check(rec):
        res = _result(rec, "sweep")
        return res is not None and _records_ok(res["records"], ns, p, generator)

    return check


def _check_sweep_csv(ns, p, generator):
    def check(rec):
        code, out, _ = rec
        lines = out.splitlines()
        if code != 0 or lines[:2] != ["# bohr-lab v1", "n,value,generator,p,q,t"]:
            return False
        rows = [line.split(",") for line in lines[2:]]
        if any(row[2:] != [generator, format(p, ".17g"), "2", "inf"] for row in rows):
            return False
        return _records_ok([(int(r[0]), float(r[1])) for r in rows], ns, p, generator)

    return check


def _check_fit(ns, p, generator):
    def check(rec):
        res = _result(rec, "fit")
        if res is None or not _records_ok(res["records"], ns, p, generator):
            return False
        xs = [math.log(n) for n, _ in res["records"]]
        ys = [math.log(v) for _, v in res["records"]]
        slope, intercept = checks.least_squares(xs, ys)
        ok = checks.close(res["exponent"], slope, rel=0.0, abs_=1e-9) and checks.close(
            res["constant"], math.exp(intercept), rel=1e-9
        )
        if generator == "exact-h2":
            ok &= abs(res["exponent"] + (1.0 / p - 0.5)) <= checks.FIT_TOL
        elif generator == "certify-closed":
            ok &= abs(res["exponent"] + (1.0 / p - 0.5)) <= 1e-9
        return ok

    return check


# Command lines that must be refused with the documented exit code and an
# empty stdout: 2 unknown command or key, 3 type mismatch, 4 out of range.
MALFORMED = (
    (["nosuch", "--n", "3"], 2),
    (["witness", "--n", "9", "--p", "1", "--q", "2", "--bogus", "1"], 2),
    (["exact-h2", "--n", "10", "--p", "abc"], 3),
    (["sweep", "--generator", "exact-h2", "--p", "1"], 3),
    (["exact-h2", "--n", "10", "--p", "2.5"], 4),
    (["certify", "--n", "5", "--p", "1", "--q", "2", "--C", "1", "--mode", "bogus"], 4),
)


def _check_refused(code):
    return lambda rec: rec[0] == code and rec[1] == "" and rec[2].startswith("error:")


def _log_int(rng, lo_exp, hi_exp):
    return max(1, round(10 ** float(rng.uniform(lo_exp, hi_exp))))


def _n_list(rng, decades):
    """One dimension per decade [10^j, 10^(j+1)) for j in decades."""
    return [_log_int(rng, j, j + 1) for j in decades]


def cli_ops(lib, rng):
    ops = []

    def command(kind, argv, check):
        main = lib.cli.main
        return Op(kind, lambda: cli_call(main, argv), check)

    def pn():
        return float(rng.uniform(0.5, 1.9))

    for n in _n_list(rng, range(6)):
        p = pn()
        ops.append(command("exact-h2", ["exact-h2", "--n", str(n), "--p", _num(p)], _check_exact(n, p)))
    for n in _n_list(rng, range(6)):
        p = pn()
        # r^(2p/(2-p)) within a factor 1.5 of its value at the radius,
        # 1 - 2^(-1/n); further out the residual overflows (see CHANGES.md)
        x = float(rng.uniform(0.5, 1.5)) * -math.expm1(-math.log(2.0) / n)
        r = x ** ((2.0 - p) / (2.0 * p))
        argv = ["residual", "--n", str(n), "--p", _num(p), "--r", _num(r)]
        ops.append(command("residual", argv, _check_residual(n, p, r)))
    for n in _n_list(rng, range(0, 6, 2)) + [_log_int(rng, 0, 6)]:
        p = pn()
        q = (1.5, 2.0, 3.0, math.inf)[int(rng.integers(4))]
        t = (1.0, 2.0, 3.0, math.inf)[int(rng.integers(4))]
        argv = ["witness", "--n", str(n), "--p", _num(p), "--q", _num(q), "--t", _num(t)]
        ops.append(command("witness", argv, _check_witness(n, p, q, t)))
    for n in _n_list(rng, range(1, 7, 2)) + [_log_int(rng, 1, 7)]:
        p = pn()
        argv = ["limit-check", "--p", _num(p), "--n", str(n)]
        ops.append(command("limit-check", argv, _check_limit(n, p)))
    # The cost of a numeric certificate rises up to sixfold with p at large n,
    # so p is stratified over the numeric commands of each class.
    for n, p in zip(_n_list(rng, (0, 2, 4, 5)), stratified(rng, 4, 0.5, 1.9)):
        argv = ["certify", "--n", str(n), "--p", _num(p), "--q", "2", "--C", "1", "--mode", "numeric"]
        ops.append(command("certify", argv, _check_certify(n, p)))
    for n, p in zip(_n_list(rng, (1, 3)), stratified(rng, 2, 0.5, 1.9)):
        ops.append(command("sandwich", ["sandwich", "--n", str(n), "--p", _num(p)], _check_sandwich(n, p)))

    def sweep(cmd, generator, decades, check, csv=False, p=None):
        ns, p = _n_list(rng, decades), pn() if p is None else p
        argv = [cmd, "--generator", generator, "--p", _num(p), "--n-list", ",".join(map(str, ns))]
        if csv:
            argv += ["--output", "csv"]
        ops.append(command(f"{cmd}:{generator}", argv, check(ns, p, generator)))

    sweep("sweep", "exact-h2", range(6), _check_sweep_json)
    sweep("sweep", "certify-closed", range(6), _check_sweep_csv, csv=True)
    # the exact-h2 exponent is within 1e-3 of -(1/p - 1/2) from n = 10^3 on
    sweep("fit", "exact-h2", (3, 4, 5), _check_fit)
    sweep("fit", "certify-closed", range(6), _check_fit)
    for i, p in enumerate(stratified(rng, 4, 0.5, 1.9)):
        cmd, check = ("sweep", _check_sweep_json) if i % 2 == 0 else ("fit", _check_fit)
        sweep(cmd, "certify-numeric", range(6), check, p=p)
    for argv, code in MALFORMED:
        ops.append(command("malformed", argv, _check_refused(code)))
    return ops


# ------------------------------------------------------------- combinatorics


def _largest_k(n, target):
    """The largest k >= 1 with C(n+k-1, k) <= target, or 1; n >= 2."""
    lo, hi = 1, 2
    while math.comb(n + hi - 1, hi) <= target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.comb(n + mid - 1, mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def combinatorics_ops(lib, rng):
    mi = lib.multiindex
    ops = []

    def enumerate_op(n, k):
        inspected = {}  # (row count, hash of the rows) -> summary

        def digest(rows):
            # rows equal to an earlier round's (same hash) are not walked again
            key = (len(rows), hash(tuple(rows)))
            if key not in inspected:
                inspected[key] = checks.enumeration_summary(rows, n, k)
            return inspected[key]

        return Op(
            "enumerate",
            lambda: mi.enumerate_degree(n, k),
            lambda rec: checks.check_enumeration(rec, n, k),
            digest,
        )

    # The largest listing acceptance criterion 9 makes (497,420 rows); being
    # fixed, it sets the peak memory on every seed.
    ops.append(enumerate_op(14, 9))
    # Up to 1.2e5 rows each.  The target counts are stratified linearly and
    # n falls from 12-13 to 2-3 as the target rises, so the largest listings
    # have the finest steps in k and the rows of a round move little from
    # seed to seed.
    for i, target in enumerate(stratified(rng, 6, 5e3, 1.2e5)):
        n = 13 - 2 * i - int(rng.integers(2))
        ops.append(enumerate_op(n, _largest_k(n, target)))
    for _ in range(2):
        n, k = int(rng.integers(20, 31)), int(rng.integers(20, 31))
        ops.append(
            Op(
                "over_cap",
                lambda n=n, k=k: mi.enumerate_degree(n, k),
                lambda rec, n=n, k=k: rec == ("raised", "CapacityError")
                and math.comb(n + k - 1, k) > mi.ENUMERATION_CAP,
            )
        )
    # All at (n, k) = (5, 6), so they cost the same: the median operation
    # falls among them.
    for _ in range(7):
        x = [float(v) for v in rng.uniform(0.0, 2.0, size=5)]
        ops.append(
            Op(
                "identity_residual",
                lambda x=x: mi.multinomial_identity_residual(x, 6),
                lambda rec: isinstance(rec, float) and 0.0 <= rec <= 1e-12,
            )
        )
    for _ in range(8):
        n, k = _log_int(rng, 0, 3.3), _log_int(rng, 0, 3.3)
        ops.append(
            Op(
                "count_and_bound",
                lambda n=n, k=k: mi.count_and_bound(n, k),
                lambda rec, n=n, k=k: rec == (math.comb(n + k - 1, k), True)
                and checks.count_bound_holds(n, k),
            )
        )
    # Batches of 462, 792 and 1287 monomials, all dearer than the residuals
    # above.
    for k in (6, 7, 8):
        n = 6
        t = T_VALUES[int(rng.integers(len(T_VALUES)))]
        alphas = [a for a in itertools.product(range(k + 1), repeat=n) if sum(a) == k]
        fams = [lib.family.normalized_monomial(a, t) for a in alphas]

        def check(rec, alphas=alphas, t=t):
            return len(rec) == len(alphas) and all(
                ok is True and checks.close(worst, checks.monomial_bound_ratio(a, t))
                for a, (ok, worst) in zip(alphas, rec)
            )

        ops.append(
            Op(
                "coefficient_check",
                lambda fams=fams, t=t: tuple(lib.bounds.coefficient_bound_check(f, t) for f in fams),
                check,
            )
        )
    return ops


_BUILDERS = {
    "polydisk_solve": polydisk_ops,
    "ball_solve": ball_ops,
    "cli_sweep": cli_ops,
    "combinatorics": combinatorics_ops,
}


def build(name, lib, seed):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](lib, rng)
