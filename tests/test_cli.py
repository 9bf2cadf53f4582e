import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bohrlab
from bohrlab import bounds, family, majorant, radius
from bohrlab.cli import (
    _FAMILY,
    _PRESETS,
    COMMANDS,
    EXIT_RANGE,
    EXIT_TYPE,
    EXIT_UNKNOWN,
    UsageError,
    main,
    parse_config,
    run,
)


def run_cli(argv, stdin_text=None):
    config = parse_config(argv)
    return run(config, stdin_text=stdin_text)


def test_parse_basic():
    config = parse_config(["exact-h2", "--n", "2", "--p", "1"])
    assert config.command == "exact-h2"
    assert config.params == {"n": 2, "p": 1.0}
    # the defaults of --seed and --output sit in params where they are taken
    ball = parse_config(["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5"])
    assert ball.params["seed"] == 0
    sweep = parse_config(["sweep", "--generator", "exact-h2", "--p", "1", "--n-list", "10"])
    assert sweep.params["output"] == "json"


def test_parse_errors():
    with pytest.raises(UsageError) as err:
        parse_config(["nosuch"])
    assert err.value.code == EXIT_UNKNOWN
    with pytest.raises(UsageError) as err:
        parse_config(["exact-h2", "--n", "1", "--p", "abc"])
    assert err.value.code == EXIT_TYPE
    with pytest.raises(UsageError) as err:
        parse_config(["exact-h2", "--n", "1", "--p", "2.5"])
    assert err.value.code == EXIT_RANGE
    with pytest.raises(UsageError) as err:
        parse_config(["exact-h2", "--n", "1", "--p", "1", "--bogus", "3"])
    assert err.value.code == EXIT_UNKNOWN


def test_config_file_flag_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("command=maximize-ball\np=1\nt=2\nr=0.5\nseed=42\n")
    config = parse_config(["maximize-ball", "--config", str(path), "--seed", "7"])
    assert config.params["seed"] == 7
    assert config.params["r"] == 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-h2", "--n", "10", "--p", "1", "--seed", "5"],
        ["witness", "--n", "9", "--p", "1", "--q", "2", "--seed", "5"],
        ["coeff-check", "--t", "2", "--preset", "moebius", "--a", "0.5", "--seed", "5"],
        ["exact-h2", "--n", "10", "--p", "1", "--output", "csv"],
        ["fit", "--generator", "exact-h2", "--p", "1", "--n-list", "10,100", "--output", "csv"],
        ["solve", "--p", "1", "--preset", "moebius", "--a", "0.5", "--output", "json"],
    ],
    ids=lambda argv: f"{argv[0]}_{argv[-2][2:]}",
)
def test_seed_and_output_refused_where_unused(capsys, argv):
    # --seed reaches only the ball optimizer, --output only sweep's CSV
    assert main(argv) == EXIT_UNKNOWN
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: unknown key for {argv[0]}: {argv[-2]}\n"


def test_seed_refused_from_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("command=witness\nn=16\np=1.2\nq=3\nt=2\nseed=9\n")
    with pytest.raises(UsageError) as err:
        parse_config(["witness", "--config", str(path)])
    assert err.value.code == EXIT_UNKNOWN


def test_exact_h2_output():
    code, out = run_cli(["exact-h2", "--n", "1", "--p", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(0.7071067811865476, abs=1e-15)
    assert doc["config"]["n"] == 1  # full config echoed


def test_certify_output():
    code, out = run_cli(
        ["certify", "--n", "1", "--p", "1", "--q", "2", "--C", "1", "--mode", "closed_form"]
    )
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(0.2144409712401767, abs=1e-10)


def test_solve_with_preset_and_stdin():
    code, out = run_cli(["solve", "--p", "1", "--preset", "moebius", "--a", "0.5"])
    assert json.loads(out)["result"]["value"] == pytest.approx(0.8, abs=1e-9)

    doc = family.to_json(family.moebius(0.5))
    code, out2 = run_cli(["solve", "--p", "1"], stdin_text=doc)
    assert json.loads(out2)["result"]["value"] == pytest.approx(0.8, abs=1e-9)


def test_pluri_stdin():
    half = family.explicit(1, {(1,): 0.5})
    payload = json.dumps(
        {
            "holo": json.loads(family.to_json(half)),
            "anti": json.loads(family.to_json(half)),
        }
    )
    code, out = run_cli(["pluri", "--p", "1"], stdin_text=payload)
    assert json.loads(out)["result"]["value"] == 1.0


def test_pluri_honours_seed_on_ball():
    holo = family.explicit(2, {(0, 3): 1.19, (2, 2): 1.39, (3, 2): 0.85})
    anti = family.explicit(2, {(2, 0): 0.37, (3, 2): 1.22})
    pf = radius.PluriharmonicFamily(holo=holo, anti=anti)
    want = radius.pluriharmonic_radius(pf, 1.0, 2.0, seed=1)
    payload = json.dumps(
        {
            "holo": json.loads(family.to_json(holo)),
            "anti": json.loads(family.to_json(anti)),
        }
    )
    code, out = run_cli(["pluri", "--p", "1", "--t", "2", "--seed", "1"], stdin_text=payload)
    assert code == 0
    got = json.loads(out)["result"]
    assert list(got) == ["value", "method", "residual", "bracket", "evaluations"]
    assert got["value"] == want.value and got["method"] == want.method
    assert got["residual"] == want.residual and got["evaluations"] == want.evaluations
    assert tuple(got["bracket"]) == want.bracket


BALL_JSON = family.to_json(family.explicit(2, {(1, 0): 0.4, (1, 1): 0.8}))
PLURI_BALL_JSON = json.dumps({"holo": json.loads(BALL_JSON), "anti": json.loads(BALL_JSON)})


@pytest.mark.parametrize(
    "owner, name, argv, stdin_text",
    [
        (radius, "solve_bohr_radius", ["solve", "--p", "1", "--t", "2"], BALL_JSON),
        (radius, "pluriharmonic_radius", ["pluri", "--p", "1", "--t", "2"], PLURI_BALL_JSON),
        (majorant, "powered_majorant_ball", ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5"], BALL_JSON),
    ],
    ids=["solve", "pluri", "maximize-ball"],
)
def test_seed_reaches_the_library(monkeypatch, owner, name, argv, stdin_text):
    real = getattr(owner, name)
    seeds = []

    def spy(*args, **kwargs):
        seeds.append(inspect.signature(real).bind(*args, **kwargs).arguments["seed"])
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    code, _ = run_cli([*argv, "--seed", "12345"], stdin_text=stdin_text)
    assert code == 0 and seeds == [12345]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--p", "1"],
        ["pluri", "--p", "1"],
        ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5"],
        ["coeff-check", "--t", "2"],
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("stdin_text", ["nope", '{"dimension": 1}', '{"holo": 1}'])
def test_malformed_family_json_exits_3(capsys, argv, stdin_text):
    assert main(argv, stdin_text=stdin_text) == EXIT_TYPE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_residual_overflow_prints_inf(capsys):
    assert main(["residual", "--n", "1000", "--p", "1.9", "--r", "0.99"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == "inf"


def test_sweep_csv_format():
    code, out = run_cli(
        ["sweep", "--generator", "exact-h2", "--p", "1", "--n-list", "1000,10000", "--output", "csv"]
    )
    lines = out.strip().split("\n")
    assert lines[0] == "# bohr-lab v1"
    assert lines[1] == "n,value,generator,p,q,t"
    assert len(lines) == 4
    assert lines[2].startswith("1000,")


def test_fit_output():
    ns = ",".join(str(round(10**e)) for e in [3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0])
    code, out = run_cli(["fit", "--generator", "exact-h2", "--p", "1", "--n-list", ns])
    doc = json.loads(out)
    assert doc["result"]["exponent"] == pytest.approx(-0.5, abs=1e-3)


def test_witness_and_limit_check():
    _, out = run_cli(["witness", "--n", "9", "--p", "1", "--q", "2", "--t", "2"])
    assert json.loads(out)["result"]["value"] == pytest.approx(1 / 3)
    _, out = run_cli(["limit-check", "--p", "1", "--n", "1000000"])
    assert json.loads(out)["result"]["rel_err"] < 1e-5


def test_coeff_check_command():
    _, out = run_cli(["coeff-check", "--t", "2", "--preset", "moebius", "--a", "0.5"])
    assert json.loads(out)["result"]["ok"] is True


def test_family_flags_are_the_preset_parameters_and_have_no_defaults():
    # --preset, then each preset's flags in table order; the parse errors
    # and the config echo follow this order
    assert list(_FAMILY) == ["preset", "a", "fn", "fq", "alpha"]
    assert _FAMILY["preset"].choices == (*_PRESETS, "stdin")
    for flags, _ in _PRESETS.values():
        assert all(_FAMILY[key] == spec for key, spec in flags.items())
    # a family flag is echoed in the config only when it is given
    assert all(spec.default is None and not spec.required for spec in _FAMILY.values())


@pytest.mark.parametrize(
    "argv, stdin_text, message",
    [
        (
            ["solve", "--p", "1", "--preset", "linear-form", "--fn", "3", "--fq", "2", "--a", "0.5"],
            None,
            "preset linear-form takes no --a",
        ),
        (
            ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5", "--preset", "moebius",
             "--a", "0.5", "--alpha", "1,1"],
            None,
            "preset moebius takes no --alpha",
        ),
        # an unused flag comes before a missing one
        (["coeff-check", "--t", "2", "--preset", "moebius", "--fn", "3"], None,
         "preset moebius takes no --fn"),
        (["solve", "--p", "1", "--a", "0.5"], family.to_json(family.moebius(0.5)),
         "a family on stdin takes no --a"),
        (["pluri", "--p", "1", "--preset", "stdin", "--fq", "2"], PLURI_BALL_JSON,
         "a family on stdin takes no --fq"),
    ],
    ids=["solve", "maximize-ball", "before-needs", "stdin", "pluri-stdin"],
)
def test_family_flags_the_family_does_not_read_are_refused(capsys, argv, stdin_text, message):
    # the rule --seed and --output follow: exit 2, empty stdout, one error line
    assert main(argv, stdin_text=stdin_text) == EXIT_UNKNOWN
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_family_flags_from_a_config_file_are_refused_alike(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("preset=monomial\nalpha=1,1\nfn=3\n")
    with pytest.raises(UsageError) as err:
        parse_config(["solve", "--p", "1", "--config", str(path)])
    assert err.value.code == EXIT_UNKNOWN and str(err.value) == "preset monomial takes no --fn"


def test_sandwich_violation_is_reported_once_on_stderr(monkeypatch, capsys):
    real = bounds.certified_lower_bound

    def too_high(cert, mode="closed_form"):  # both lower bounds above the exact radius
        res = real(cert, mode=mode)
        return dataclasses.replace(res, value=res.value + 0.5)

    monkeypatch.setattr(bounds, "certified_lower_bound", too_high)
    assert main(["sandwich", "--n", "10", "--p", "1"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)["result"]
    assert doc["ok"] is False
    # one line, for the first failing pair only: the closed form's
    assert err.count("\n") == 1 and err.startswith("sandwich violation: lower=")
    lower, upper = err.removeprefix("sandwich violation: lower=").split(" upper=")
    assert json.loads(lower) == doc["lower_closed_form"]
    assert json.loads(upper) == doc["upper"]


def test_moebius_takes_no_truncation_flag(capsys):
    argv = ["solve", "--p", "1", "--preset", "moebius", "--a", "0.3", "--trunc", "40"]
    assert main(argv) == EXIT_UNKNOWN
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown key for solve: --trunc\n"
    _, out = run_cli(argv[:-2])
    assert set(json.loads(out)["config"]) == {"seed", "output", "a", "p", "preset", "t"}


def test_coeff_check_reads_the_certificate_from_stdin_json():
    doc = family.to_json(family.moebius(0.5))
    code, from_stdin = run_cli(["coeff-check", "--t", "2"], stdin_text=doc)
    _, from_preset = run_cli(["coeff-check", "--t", "2", "--preset", "moebius", "--a", "0.5"])
    assert code == 0
    assert json.loads(from_stdin)["result"] == json.loads(from_preset)["result"]


# a valid run of each command that does not solve for a radius
NO_TOL = [
    ["exact-h2", "--n", "10", "--p", "1"],
    ["residual", "--n", "10", "--p", "1", "--r", "0.5"],
    ["certify", "--n", "10", "--p", "1", "--q", "2", "--C", "1", "--mode", "numeric"],
    ["witness", "--n", "9", "--p", "1", "--q", "2", "--t", "2"],
    ["coeff-check", "--t", "2", "--preset", "moebius", "--a", "0.5"],
    ["sandwich", "--n", "10", "--p", "1"],
    ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5", "--preset", "monomial", "--alpha", "1,1"],
    ["sweep", "--generator", "exact-h2", "--p", "1", "--n-list", "10,100"],
    ["fit", "--generator", "exact-h2", "--p", "1", "--n-list", "10,100,1000"],
    ["limit-check", "--p", "1", "--n", "1000"],
]


def test_tol_is_taken_only_by_the_radius_solves():
    assert {argv[0] for argv in NO_TOL} == set(COMMANDS) - {"solve", "pluri"}
    for command in ("solve", "pluri"):
        assert parse_config([command, "--p", "1", "--tol", "1e-8"]).params["tol"] == 1e-8


@pytest.mark.parametrize("argv", NO_TOL, ids=lambda argv: argv[0])
def test_tol_is_an_unknown_key_elsewhere(tmp_path, capsys, argv):
    assert main(argv) == 0
    assert main([*argv, "--tol", "0.001"]) == EXIT_UNKNOWN
    path = tmp_path / "run.cfg"
    path.write_text("tol=0.001\n")
    assert main([*argv, "--config", str(path)]) == EXIT_UNKNOWN
    prefix = f"error: unknown key for {argv[0]}:"
    assert capsys.readouterr().err.splitlines() == [f"{prefix} --tol", f"{prefix} tol"]


def test_maximize_ball_command():
    _, out = run_cli(
        ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.5", "--preset", "monomial", "--alpha", "1,1"]
    )
    doc = json.loads(out)
    assert doc["result"]["value"] == pytest.approx(0.25)
    assert doc["result"]["exactness"] == "exact"


def test_coefficient_power_overflow_exits_4(capsys):
    stdin_text = (
        '{"dimension": 2, "entries": [[[1,1], 1e200], [[2,0], 1.0], [[0,1], 0.5]],'
        ' "truncation_degree": 2}'
    )
    argv = ["maximize-ball", "--p", "2", "--t", "2", "--r", "0.5"]
    assert main(argv, stdin_text=stdin_text) == EXIT_RANGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: an entry's 2.0-th power exceeds the float range\n"


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_family_entry_exits_4(capsys, value):
    stdin_text = f'{{"dimension": 1, "truncation_degree": 1, "entries": [[[1], {value}]]}}'
    assert main(["solve", "--p", "1"], stdin_text=stdin_text) == EXIT_RANGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: entry at (1,) is not in [0, inf)")


@pytest.mark.parametrize(
    "argv, stdin_text",
    [
        (["solve", "--p", "1"], '{"dimension": 2.0, "truncation_degree": 1, "entries": [[[1,0], 0.5]]}'),
        (
            ["solve", "--p", "1"],
            '{"dimension": 1, "truncation_degree": 2.5, "entries": [[[1], 0.5]],'
            ' "tail": {"kind": "geometric_uniform", "parameter": 0.3}}',
        ),
        (
            ["coeff-check", "--t", "2"],
            '{"dimension": 1, "truncation_degree": 1, "entries": [[[1], 0.5]],'
            ' "sup_norm_certified": "no"}',
        ),
        (
            ["solve", "--p", "1"],
            '{"dimension": 1, "truncation_degree": 1, "entries": [[[1], 0.5], [[1], 0.9]]}',
        ),
        (
            ["solve", "--p", "1"],
            '{"dimension": 2, "truncation_degree": 1, "entries": [[[true, 0], 0.5]]}',
        ),
    ],
    ids=[
        "float-dimension", "float-truncation", "str-certified", "repeated-index", "bool-index-part"
    ],
)
def test_non_integer_sizes_and_non_bool_flags_exit_4(capsys, argv, stdin_text):
    assert main(argv, stdin_text=stdin_text) == EXIT_RANGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "10", "--p", "3", "--q", "2", "--C", "1"],
        ["sweep", "--generator", "certify-closed", "--p", "3", "--q", "2", "--n-list", "10,20"],
        ["fit", "--generator", "exact-h2", "--p", "2.5", "--n-list", "10,20,30"],
    ],
    ids=["certify", "sweep", "fit"],
)
def test_out_of_range_parameters_exit_4_inside_sweeps(capsys, argv):
    # a sweep's generator refuses the same parameters as the single command
    assert main(argv) == EXIT_RANGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "generator failed" not in err


def test_float_fields_have_17_digit_round_trip():
    _, out = run_cli(["exact-h2", "--n", "3", "--p", "1.3"])
    raw = out.split('"value": ')[1].split("}")[0]
    assert float(raw) == json.loads(out)["result"]["value"]


def test_byte_identical_across_runs(capsys):
    argv = ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.6", "--preset", "linear-form",
            "--fn", "3", "--fq", "2", "--seed", "5"]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# a mixed l_2 family runs the batched multistart optimizer, whose matrix
# products go through BLAS
MIXED_L2 = family.explicit(
    3, {(0, 0, 1): 2.25, (0, 2, 1): 5.67, (1, 0, 2): 1.52, (1, 2, 1): 5.13}
)


def stdout_per_blas_thread_count(argv, stdin_text):
    """stdout of `bohr-lab argv` in a fresh process per OpenBLAS thread count."""
    outputs = []
    for threads in ["1", "2"]:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(bohrlab.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "bohrlab.cli", *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    return outputs


def test_maximize_ball_byte_identical_across_blas_threads():
    argv = ["maximize-ball", "--p", "1", "--t", "2", "--r", "0.44", "--seed", "3"]
    outputs = stdout_per_blas_thread_count(argv, family.to_json(MIXED_L2))
    assert json.loads(outputs[0])["result"]["exactness"] == "optimizer"
    assert outputs[0] == outputs[1]


def test_solve_byte_identical_across_blas_threads():
    # each Newton step reads the optimizer's slope, a BLAS product
    argv = ["solve", "--p", "1", "--t", "2"]
    outputs = stdout_per_blas_thread_count(argv, family.to_json(MIXED_L2))
    assert json.loads(outputs[0])["result"]["method"] == "bisection"
    assert outputs[0] == outputs[1]


def test_main_exit_codes(capsys):
    assert main(["exact-h2", "--n", "1", "--p", "2.5"]) == EXIT_RANGE
    assert main(["nosuch"]) == EXIT_UNKNOWN
    assert main(["exact-h2", "--n", "x", "--p", "1"]) == EXIT_TYPE
    assert main(["--help"]) == 0
    capsys.readouterr()
