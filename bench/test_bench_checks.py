"""Tests of the benchmark's checkers: each accepts the library's correct
answer and rejects the same answer perturbed by about 1e-6, so that no
check is vacuous.  Run with `python -m pytest bench`."""

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bohrlab import family, majorant, multiindex, radius  # noqa: E402


@pytest.fixture(autouse=True)
def restore_bohrlab_modules():
    """run.import_library() re-imports bohrlab; put the session's modules
    back so that other test modules keep one set of classes."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "bohrlab"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "bohrlab"]:
        del sys.modules[name]
    sys.modules.update(saved)


def bump(x):
    """x off by 1e-6, or by one part in a million when |x| > 1."""
    return x + 1e-6 * max(1.0, abs(x))


def perturb_json(out):
    doc = json.loads(out)
    res = doc["result"]
    if "exponent" in res:
        res["exponent"] += 1e-6
    elif "records" in res:
        res["records"][0][1] = bump(res["records"][0][1])
    elif "lower_numeric" in res:
        res["lower_numeric"]["value"] = bump(res["lower_numeric"]["value"])
    elif "lhs" in res:
        res["lhs"] = bump(res["lhs"])
    else:
        res["value"] = bump(res["value"])
    return json.dumps(doc) + "\n"


def perturb(op, rec):
    """A record of the same shape as rec that a correct check must refuse."""
    if op.kind == "malformed":
        return (rec[0] + 1,) + rec[1:]
    if op.kind == "sweep:certify-closed":
        lines = rec[1].splitlines()
        row = lines[2].split(",")
        row[1] = repr(bump(float(row[1])))
        lines[2] = ",".join(row)
        return (rec[0], "\n".join(lines) + "\n", rec[2])
    if isinstance(rec, tuple) and len(rec) == 3 and isinstance(rec[1], str):
        return (rec[0], perturb_json(rec[1]), rec[2])
    if op.kind == "enumerate":
        return (rec[0] - 1, rec[1])  # one multi-index dropped
    if op.kind == "over_cap":
        return ("raised", "ParameterError")
    if op.kind == "identity_residual":
        return rec + 1e-6
    if op.kind == "count_and_bound":
        return (rec[0] + 1, rec[1])
    if op.kind == "coefficient_check":
        ok, worst = rec[0]
        return ((ok, bump(worst)),) + rec[1:]
    value, method = rec  # a radius solve
    return (value + 1e-6 if value < 1.0 else value - 1e-6, method)


def run_op(op):
    try:
        out = op.call()
    except Exception as exc:
        return workloads.raised_record(exc)
    return op.digest(out) if op.digest else out


@pytest.mark.parametrize("name", ["polydisk_solve", "cli_sweep", "combinatorics"])
def test_every_operation_checked_and_perturbation_refused(name):
    lib = run.import_library()
    for op in workloads.build(name, lib, seed=11):
        rec = run_op(op)
        assert bool(op.check(rec)) == (op.fault is None), (op.kind, rec)
        if op.fault is None:
            assert not op.check(perturb(op, rec)), (op.kind, rec)


def test_known_faults_fail_their_checks():
    lib = run.import_library()
    faulty = [op for op in workloads.build("polydisk_solve", lib, seed=0) if op.fault]
    assert sorted(op.kind for op in faulty) == ["extremal_g", "moebius", "moebius"]
    for op in faulty:
        assert not op.check(run_op(op))


def test_polynomial_radius_matches_closed_forms():
    # P(x) = x: radius 1 saturates; P(x) = 2x at p = 1: radius 1/2
    assert checks.polynomial_radius({1: 0.5}, 1.0) == 1.0
    assert checks.polynomial_radius({1: 2.0}, 1.0) == pytest.approx(0.5, abs=1e-15)
    # 3x^2 at p = 0.5: r^(2 * 0.5) = 1/sqrt(3)
    want = (1.0 / math.sqrt(3.0)) ** 2
    assert checks.polynomial_radius({2: 3.0}, 0.5) == pytest.approx(want, abs=1e-14)


def test_ball_check_refuses_radius_off_by_1e6():
    terms = [((1, 1, 0), 2.5), ((0, 0, 2), 1.8), ((2, 0, 1), 1.2)]
    f = family.explicit(3, dict(terms))
    for t, p in [(1.5, 1.0), (3.0, 0.5)]:
        res = radius.solve_bohr_radius(f, p, majorant.DomainSpec.lt_ball(t))
        assert res.method == "bisection"
        assert checks.check_ball_radius(terms, p, t, res.value, res.method)
        for shift in (-1e-6, 1e-6):
            assert not checks.check_ball_radius(terms, p, t, res.value + shift, res.method)
        assert not checks.check_ball_radius(terms, p, t, 1.0, "saturated_at_one")


def test_ball_workload_closed_forms():
    lib = run.import_library()
    for op in workloads.build("ball_solve", lib, seed=5):
        if op.kind == "mixed":
            continue
        rec = run_op(op)
        assert op.check(rec), (op.kind, rec)
        assert not op.check(perturb(op, rec)), (op.kind, rec)


def test_certificate_checks_bracket_the_crossing():
    from bohrlab import bounds

    for n, p in [(1, 1.0), (50, 0.7), (10**6, 1.5)]:
        cert = bounds.CertificateInput(n=n, p=p, q=2.0, C=1.0)
        value = bounds.certified_lower_bound(cert, mode="numeric").value
        assert checks.check_cert_numeric(n, p, 2.0, 1.0, value)
        assert checks.check_h2_sandwich(n, p, value)
        for shift in (-1e-6, 1e-6):
            assert not checks.check_cert_numeric(n, p, 2.0, 1.0, value + shift)


def test_enumeration_summary_refuses_damaged_listings():
    rows = multiindex.enumerate_degree(3, 4)
    assert checks.check_enumeration(checks.enumeration_summary(rows, 3, 4), 3, 4)
    damaged = [
        rows[:-1],  # dropped index
        rows[:1] + rows,  # duplicate
        rows[1:2] + rows[:1] + rows[2:],  # order broken
        [(4, 0, 1)] + rows[1:],  # wrong degree
        [(4, 0)] + rows[1:],  # wrong length
    ]
    for bad in damaged:
        assert not checks.check_enumeration(checks.enumeration_summary(bad, 3, 4), 3, 4)


def test_run_reports_the_metrics_benchmark_json_names(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = io.StringIO()
        with redirect_stdout(out):
            argv = ["--workload", "polydisk_solve", "--seed", "3", "--seconds", "0.01"]
            assert run.main(argv + ["--trace", str(trace)]) == 0
        result = json.loads(out.getvalue().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] * 53 == 3 * result["attempted"]  # 3 known faults a round
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }


def test_trimmed_mean_drops_both_tails():
    values = [5.0, 1.0, 2.0, 3.0, 100.0, 4.0, 6.0, 7.0, 8.0, 9.0]
    assert run.trimmed_mean(values) == 5.5  # 1 and 100 dropped
    assert run.trimmed_mean([4.0, 2.0]) == 3.0  # too few values to drop any
