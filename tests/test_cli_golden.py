"""Byte-for-byte CLI output against recorded runs.

tests/cli_golden.json holds the exit code, stdout and stderr of each case
below.  A case is (argv, stdin); "{config}" in argv stands for a config
file holding CONFIG_FILE.  To record again after a deliberate change of
output, run `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from bohrlab import family
from bohrlab.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")
CONFIG_FILE = "# a run read from a file\ncommand=witness\nn=16\np=1.2\nq=3\nt=2\nseed=9\n"
MOEBIUS_JSON = family.to_json(family.moebius(0.5))
PLURI_JSON = json.dumps(
    {
        "holo": json.loads(family.to_json(family.explicit(1, {(1,): 0.5}))),
        "anti": json.loads(family.to_json(family.explicit(1, {(1,): 0.25}))),
    }
)

CASES = [
    # one run of each command
    (["exact-h2", "--n", "10", "--p", "1"], None),
    (["residual", "--n", "10", "--p", "1", "--r", "0.5"], None),
    (["solve", "--p", "1", "--preset", "moebius", "--a", "0.5"], None),
    (["pluri", "--p", "1", "--preset", "moebius", "--a", "0.5"], None),
    (["certify", "--n", "10", "--p", "1", "--q", "2", "--C", "1", "--mode", "numeric"], None),
    (["witness", "--n", "9", "--p", "1", "--q", "2", "--t", "2"], None),
    (["coeff-check", "--t", "2", "--preset", "moebius", "--a", "0.5"], None),
    (["sandwich", "--n", "10", "--p", "1"], None),
    (["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5", "--preset", "monomial", "--alpha", "1,1"], None),
    (["sweep", "--generator", "exact-h2", "--p", "1", "--n-list", "10,100,1000"], None),
    (["fit", "--generator", "exact-h2", "--p", "1", "--n-list", "1000,10000,100000"], None),
    (["limit-check", "--p", "1", "--n", "1000"], None),
    # solve with each preset and with a family on stdin
    (["solve", "--p", "1.5", "--preset", "extremal-g", "--fn", "10"], None),
    (["solve", "--p", "1", "--t", "2", "--preset", "linear-form", "--fn", "3", "--fq", "2"], None),
    (["solve", "--p", "1", "--t", "2", "--preset", "monomial", "--alpha", "2,1"], None),
    (["solve", "--p", "1", "--preset", "moebius", "--a", "0.3", "--tol", "1e-8"], None),
    (["solve", "--p", "1"], MOEBIUS_JSON),
    (["solve", "--p", "1", "--preset", "stdin"], MOEBIUS_JSON),
    # the other family commands, their generators and output forms
    (["pluri", "--p", "1", "--seed", "4"], PLURI_JSON),
    (["coeff-check", "--t", "3", "--preset", "linear-form", "--fn", "4", "--fq", "2"], None),
    (["maximize-ball", "--p", "1", "--t", "2", "--r", "0.6", "--preset", "linear-form", "--fn", "3", "--fq", "2", "--seed", "5"], None),
    (["sweep", "--generator", "certify-closed", "--p", "1", "--n-list", "10,1000", "--output", "csv"], None),
    (["sweep", "--generator", "exact-h2", "--p", "1", "--n-list", "1000,10000", "--output", "csv"], None),
    (["sweep", "--generator", "certify-numeric", "--p", "1", "--q", "3", "--C", "2", "--n-list", "5,50"], None),
    (["sweep", "--generator", "witness", "--p", "1", "--q", "2", "--t", "2", "--n-list", "4,9,16"], None),
    (["fit", "--generator", "witness", "--p", "1", "--q", "inf", "--t", "2", "--n-list", "10,100,1000", "--model", "log_power"], None),
    (["witness", "--config", "{config}", "--seed", "3"], None),
    (["--help"], None),
    ([], None),
    # refusals: the bench's malformed command lines, then preset and stdin errors
    (["nosuch", "--n", "3"], None),
    (["witness", "--n", "9", "--p", "1", "--q", "2", "--bogus", "1"], None),
    (["exact-h2", "--n", "10", "--p", "abc"], None),
    (["sweep", "--generator", "exact-h2", "--p", "1"], None),
    (["exact-h2", "--n", "10", "--p", "2.5"], None),
    (["certify", "--n", "5", "--p", "1", "--q", "2", "--C", "1", "--mode", "bogus"], None),
    (["solve", "--p", "1", "--preset", "moebius"], None),
    (["solve", "--p", "1", "--preset", "extremal-g"], None),
    (["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5", "--preset", "linear-form", "--fn", "3"], None),
    (["coeff-check", "--t", "2", "--preset", "monomial"], None),
    (["solve", "--p", "1", "--preset", "bogus"], None),
    (["solve", "--p", "3", "--preset", "extremal-g", "--fn", "10"], None),
    (["solve", "--p", "1"], ""),
    (["pluri", "--p", "1"], " \n"),
    (["witness", "--n", "9", "--p", "1", "--q", "2", "--t"], None),
    (["--n", "3"], None),
]


def case_id(case):
    argv, stdin = case
    name = " ".join(argv) or "(no arguments)"
    if stdin is None:
        return name
    return name + (" <json" if stdin.strip() else " <blank")


def run_case(case, tmp_path):
    argv, stdin = case
    if "{config}" in argv:
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG_FILE)
        argv = [str(path) if a == "{config}" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv, stdin_text=stdin)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_output_matches_recording(case, golden, tmp_path):
    assert run_case(case, tmp_path) == golden[case_id(case)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        recorded = {case_id(c): run_case(c, Path(tmp)) for c in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
