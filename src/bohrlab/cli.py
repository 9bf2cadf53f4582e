"""Command-line surface: one subcommand per operation family, JSON or CSV
on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 computational failure, 2 unknown command or key,
3 type mismatch, 4 parameter out of range.
"""

import json
import math
import sys
from dataclasses import dataclass, field, is_dataclass

from . import asymptotics, bounds, family, majorant, radius
from .errors import BohrLabError, ParameterError

CSV_HEADER = "# bohr-lab v1"

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_UNKNOWN = 2
EXIT_TYPE = 3
EXIT_RANGE = 4


class UsageError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Param:
    kind: str  # int | float | str | intlist
    required: bool = False
    default: object = None
    choices: tuple | None = None
    check: object = None  # value -> bool, failure means out of range
    allow_inf: bool = False


def _positive(x):
    return x > 0


def _ge_one(x):
    return x >= 1


def _nonnegative(x):
    return x >= 0


# specs that several commands or presets share; _Q_2 and _C_1 are optional,
# default 2 and 1
_N = Param("int", required=True, check=_ge_one)
_P = Param("float", required=True, check=_positive)
_P_H2 = Param("float", required=True, check=lambda x: 0 < x < 2)
_Q = Param("float", required=True, check=_ge_one, allow_inf=True)
_T = Param("float", default=math.inf, check=_ge_one, allow_inf=True)
_R = Param("float", required=True, check=lambda x: 0 <= x < 1)
_Q_2 = Param("float", default=2.0, check=_ge_one, allow_inf=True)
_C_1 = Param("float", default=1.0, check=_nonnegative)
_FN = Param("int", check=_ge_one)

# each preset: the flags it reads, and a builder that takes them in one dict,
# along with the exponent "p" (extremal-g) and the domain exponent "t"
# (linear-form and monomial; default inf)
_PRESETS = {
    "moebius": (
        {"a": Param("float", check=lambda x: 0 < x < 1)},
        lambda kw: family.moebius(kw["a"]),
    ),
    "extremal-g": ({"fn": _FN}, lambda kw: family.extremal_g(kw["fn"], kw["p"])),
    "linear-form": (
        {"fn": _FN, "fq": Param("float", check=_ge_one, allow_inf=True)},
        lambda kw: family.linear_form(kw["fn"], kw["fq"], kw.get("t", math.inf)),
    ),
    "monomial": (
        {"alpha": Param("intlist")},
        lambda kw: family.normalized_monomial(tuple(kw["alpha"]), kw.get("t", math.inf)),
    ),
}

# --preset, then every preset's flags; none has a default, so a family flag
# is echoed in the config only when it is given
_FAMILY = {
    "preset": Param("str", choices=(*_PRESETS, "stdin")),
    **{key: spec for flags, _ in _PRESETS.values() for key, spec in flags.items()},
}

_COMMON = {"config": Param("str")}

# the optimizer seed, taken only by the commands that can reach the ball optimizer
_SEED = Param("int", default=0, check=lambda x: 0 <= x < 2**64)

# solve and pluri find a radius; only they take --tol, the root finder's bracket width
_SOLVE = {"p": _P, "t": _T, **_FAMILY, "tol": Param("float", check=_positive), "seed": _SEED}


def _convert(key, raw, spec):
    try:
        if spec.kind == "int":
            return int(raw)
        if spec.kind == "float":
            value = float(raw)
            if math.isnan(value) or (math.isinf(value) and not spec.allow_inf):
                raise ValueError(raw)
            return value
        if spec.kind == "intlist":
            return [int(part) for part in raw.split(",") if part != ""]
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(EXIT_TYPE, f"type mismatch for --{key}: {raw!r}") from exc


def _range_check(key, value, spec):
    if spec.choices is not None and value not in spec.choices:
        raise UsageError(
            EXIT_RANGE, f"--{key} must be one of {spec.choices}, got {value!r}"
        )
    if spec.check is not None and not spec.check(value):
        raise UsageError(EXIT_RANGE, f"--{key} out of range: {value!r}")


def _read_config_file(path):
    pairs = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(EXIT_TYPE, f"bad config line: {line!r}")
                key, _, raw = line.partition("=")
                pairs[key.strip()] = raw.strip().strip('"')
    except OSError as exc:
        raise UsageError(EXIT_TYPE, f"cannot read config file {path}: {exc}") from exc
    return pairs


def parse_config(argv):
    """Resolve flags (and an optional key=value config file) into a RunConfig.

    Flags win over file values; unknown commands or keys exit 2, type
    mismatches exit 3, out-of-range values exit 4.
    """
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        raise UsageError(EXIT_OK, "help")
    command = argv[0]
    if command.startswith("--"):
        raise UsageError(EXIT_UNKNOWN, f"expected a command, got flag {command!r}")
    if command not in COMMANDS:
        raise UsageError(EXIT_UNKNOWN, f"unknown command: {command}")
    specs = {**COMMANDS[command].params, **_COMMON}

    flag_raw = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            raise UsageError(EXIT_UNKNOWN, f"unexpected argument: {token!r}")
        key = token[2:]
        if key not in specs:
            raise UsageError(EXIT_UNKNOWN, f"unknown key for {command}: --{key}")
        if i + 1 >= len(argv):
            raise UsageError(EXIT_TYPE, f"missing value for --{key}")
        flag_raw[key] = argv[i + 1]
        i += 2

    raw = {}
    if "config" in flag_raw:
        file_pairs = _read_config_file(flag_raw["config"])
        for key, value in file_pairs.items():
            if key == "command":
                if value != command:
                    raise UsageError(
                        EXIT_UNKNOWN, f"config file command {value!r} != {command!r}"
                    )
                continue
            if key not in specs:
                raise UsageError(EXIT_UNKNOWN, f"unknown key for {command}: {key}")
            raw[key] = value
    raw.update(flag_raw)  # flags win
    raw.pop("config", None)

    resolved = {}
    for key, spec in specs.items():
        if key == "config":
            continue
        if key in raw:
            value = _convert(key, raw[key], spec)
            _range_check(key, value, spec)
            resolved[key] = value
        elif spec.required:
            raise UsageError(EXIT_TYPE, f"missing required --{key} for {command}")
        elif spec.default is not None:
            resolved[key] = spec.default

    # a family flag the chosen preset does not read is refused, as is any
    # family flag beside a family on stdin
    if "preset" in specs:
        name = resolved.get("preset", "stdin")
        taken = _PRESETS[name][0] if name in _PRESETS else {}
        unused = [k for k in _FAMILY if k != "preset" and k in resolved and k not in taken]
        if unused:
            owner = "a family on stdin" if name == "stdin" else f"preset {name}"
            raise UsageError(EXIT_UNKNOWN, f"{owner} takes no --{unused[0]}")

    return RunConfig(command=command, params=resolved)


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{k}": {_fmt(v)}' for k, v in value.items()) + "}"
    if is_dataclass(value):
        return _fmt(vars(value))  # its fields, in order
    raise TypeError(f"cannot serialize {type(value)}")


def emit_json(doc):
    return _fmt(doc) + "\n"


def _csv_num(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".17g")
    return str(value)


def emit_sweep_csv(records, prm):
    """One row per record; the generator, p, q and t columns repeat the config."""
    config = ",".join([prm["generator"], *(_csv_num(prm[key]) for key in ("p", "q", "t"))])
    lines = [CSV_HEADER, "n,value,generator,p,q,t"]
    lines += [f"{rec.n},{_csv_num(rec.value)},{config}" for rec in records]
    return "\n".join(lines) + "\n"


def _stdin_json(stdin_text, missing, parse):
    """parse(stdin_text); blank stdin or malformed family JSON exits 3."""
    if stdin_text is None or not stdin_text.strip():
        raise UsageError(EXIT_TYPE, missing)
    try:
        return parse(stdin_text)
    except ParameterError:
        raise  # well-formed but out of range: exit 4
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise UsageError(EXIT_TYPE, f"malformed family JSON on stdin: {exc!r}") from exc


def _family(prm, stdin_text):
    """The family --preset names, or the family JSON on stdin."""
    name = prm.get("preset", "stdin")
    if name == "stdin":
        return _stdin_json(
            stdin_text, "no --preset given and no family JSON on stdin", family.from_json
        )
    flags, make = _PRESETS[name]
    if any(key not in prm for key in flags):
        needs = " and ".join(f"--{key}" for key in flags)
        raise UsageError(EXIT_TYPE, f"preset {name} needs {needs}")
    return make(prm)


def _holo_anti(text):
    doc = json.loads(text)
    return tuple(family.from_json(json.dumps(doc[part])) for part in ("holo", "anti"))


def _config_echo(params):
    """The parameters: seed and output first, echoed by every command, then
    tol where given, then the rest in key order."""
    doc = {"seed": 0, "output": "json", **params}
    order = dict.fromkeys(["seed", "output", "tol", *sorted(doc)])
    return {key: doc[key] for key in order if key in doc}


def _certifier(mode):
    return lambda prm: lambda n: bounds.certified_lower_bound(
        bounds.CertificateInput(n=n, p=prm["p"], q=prm["q"], C=prm["C"]), mode=mode
    ).value


_GENERATORS = {
    "exact-h2": lambda prm: lambda n: radius.exact_h2_radius(n, prm["p"]),
    "certify-closed": _certifier("closed_form"),
    "certify-numeric": _certifier("numeric"),
    "witness": lambda prm: lambda n: bounds.witness_upper_linear_form(
        n, prm["p"], prm["q"], prm["t"]
    ).value,
}

_SWEEP = {
    "generator": Param("str", required=True, choices=tuple(_GENERATORS)),
    "p": _P,
    "q": _Q_2,
    "C": _C_1,
    "t": _T,
    "n-list": Param("intlist", required=True),
}


def _records(prm):
    return asymptotics.sweep(_GENERATORS[prm["generator"]](prm), prm["n-list"])


@dataclass(frozen=True)
class Command:
    params: dict  # key -> Param, besides the _COMMON keys every command takes
    help_line: str
    handler: object  # (config, stdin_text) -> result document or stdout text


COMMANDS = {}


def _command(name, help_line, **params):
    """Declare a command, its --help line and its parameters; the decorated
    handler returns the result document, or the finished stdout text when
    the output is not JSON."""

    def declare(handler):
        COMMANDS[name] = Command(params, help_line, handler)
        return handler

    return declare


@_command("exact-h2", "closed-form H^2 class radius (n, p < 2)", n=_N, p=_P_H2)
def _exact_h2(config, stdin_text):
    return {"value": radius.exact_h2_radius(config.params["n"], config.params["p"])}


@_command("residual", "defining-equation residual of the H^2 radius at r", n=_N, p=_P_H2, r=_R)
def _residual(config, stdin_text):
    prm = config.params
    return {"value": radius.h2_defining_residual(prm["n"], prm["p"], prm["r"])}


@_command("solve", "per-family radius by Newton steps on the powered majorant", **_SOLVE)
def _solve(config, stdin_text):
    prm = config.params
    f = _family(prm, stdin_text)
    domain = majorant.DomainSpec(prm["t"])
    tol = prm.get("tol", radius.DEFAULT_TOL)
    return radius.solve_bohr_radius(f, prm["p"], domain, tol=tol, seed=prm["seed"])


@_command("pluri", "pluriharmonic radius with weights |a_alpha|^p + |b_alpha|^p", **_SOLVE)
def _pluri(config, stdin_text):
    prm = config.params
    if prm.get("preset", "stdin") != "stdin":
        holo = _family(prm, None)
        anti = family.explicit(holo.dimension, {}, label="zero")
    else:
        holo, anti = _stdin_json(stdin_text, "pluri needs a preset or stdin JSON", _holo_anti)
    pf = radius.PluriharmonicFamily(holo=holo, anti=anti)
    tol = prm.get("tol", radius.DEFAULT_TOL)
    return radius.pluriharmonic_radius(pf, prm["p"], prm["t"], tol=tol, seed=prm["seed"])


@_command(
    "certify",
    "certified lower bound from a per-degree q-sum certificate",
    n=_N,
    p=_P,
    q=_Q,
    C=Param("float", required=True, check=_nonnegative),
    mode=Param("str", default="closed_form", choices=("closed_form", "numeric")),
)
def _certify(config, stdin_text):
    prm = config.params
    cert = bounds.CertificateInput(n=prm["n"], p=prm["p"], q=prm["q"], C=prm["C"])
    return bounds.certified_lower_bound(cert, mode=prm["mode"])


@_command("witness", "linear-form witness upper bound on the class radius", n=_N, p=_P, q=_Q, t=_T)
def _witness(config, stdin_text):
    prm = config.params
    return bounds.witness_upper_linear_form(prm["n"], prm["p"], prm["q"], prm["t"])


@_command(
    "coeff-check",
    "ball coefficient bound check for certified presets",
    t=Param("float", required=True, check=_ge_one, allow_inf=True),
    **_FAMILY,
)
def _coeff_check(config, stdin_text):
    # the check does not depend on p; extremal-g is built for p = 1
    f = _family({"p": 1.0, **config.params}, stdin_text)
    ok, worst = bounds.coefficient_bound_check(f, config.params["t"])
    return {"ok": ok, "worst_ratio": worst}


@_command(
    "sandwich", "lower certificate vs exact upper consistency", n=_N, p=_P_H2, q=_Q_2, C=_C_1
)
def _sandwich(config, stdin_text):
    prm = config.params
    cert = bounds.CertificateInput(n=prm["n"], p=prm["p"], q=prm["q"], C=prm["C"])
    lower_cf = bounds.certified_lower_bound(cert, mode="closed_form")
    lower_num = bounds.certified_lower_bound(cert, mode="numeric")
    upper_value = radius.exact_h2_radius(prm["n"], prm["p"])
    upper = radius.RadiusResult(
        value=upper_value, method="closed_form", residual=0.0,
        bracket=(upper_value, upper_value),
    )
    # the first lower bound above the upper one, if any, is reported on stderr
    failed = next(
        (lower for lower in (lower_cf, lower_num) if not bounds.sandwich_check(lower, upper)),
        None,
    )
    if failed is not None:
        print(f"sandwich violation: lower={_fmt(failed)} upper={_fmt(upper)}", file=sys.stderr)
    return {
        "lower_closed_form": lower_cf,
        "lower_numeric": lower_num,
        "upper": upper,
        "ok": failed is None,
    }


@_command(
    "maximize-ball",
    "powered majorant over an l_t ball at fixed radius",
    p=_P,
    t=Param("float", required=True, check=lambda x: 1 <= x < math.inf),
    r=_R,
    **_FAMILY,
    seed=_SEED,
)
def _maximize_ball(config, stdin_text):
    prm = config.params
    f = _family(prm, stdin_text)
    mv = majorant.powered_majorant_ball(f, prm["p"], prm["t"], prm["r"], seed=prm["seed"])
    return {
        "value": mv.value,
        "exactness": mv.exactness,
        "maximizer": None if mv.maximizer is None else list(mv.maximizer),
    }


@_command(
    "sweep",
    "evaluate a generator over a list of dimensions (CSV/JSON)",
    **_SWEEP,
    output=Param("str", default="json", choices=("json", "csv")),
)
def _sweep(config, stdin_text):
    records = _records(config.params)
    if config.params["output"] == "csv":
        return emit_sweep_csv(records, config.params)
    return {"records": [[rec.n, rec.value] for rec in records]}


@_command(
    "fit",
    "sweep plus log-log scaling-exponent fit",
    **_SWEEP,
    model=Param("str", default="power", choices=("power", "log_power")),
)
def _fit(config, stdin_text):
    records = _records(config.params)
    fit = asymptotics.fit_exponent(records, model=config.params["model"])
    return {**vars(fit), "records": [[rec.n, rec.value] for rec in records]}


@_command("limit-check", "limit-constant check for the H^2 radius", n=_N, p=_P_H2)
def _limit_check(config, stdin_text):
    lhs, rhs, rel_err = asymptotics.h2_limit_check(config.params["p"], config.params["n"])
    return {"lhs": lhs, "rhs": rhs, "rel_err": rel_err}


USAGE = "usage: bohr-lab COMMAND [--key value ...]\n\n" + "".join(
    f"{name:<15}{command.help_line}\n" for name, command in COMMANDS.items()
)


def run(config, stdin_text=None):
    """Dispatch the resolved config; returns (exit_code, stdout_text)."""
    result = COMMANDS[config.command].handler(config, stdin_text)
    if isinstance(result, str):
        return EXIT_OK, result
    doc = {"command": config.command, "config": _config_echo(config.params), "result": result}
    return EXIT_OK, emit_json(doc)


def main(argv=None, stdin_text=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except UsageError as exc:
        if exc.code == EXIT_OK:
            sys.stdout.write(USAGE)
            return EXIT_OK
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        # a command that takes --preset reads its family from stdin without one
        if (
            stdin_text is None
            and "preset" in COMMANDS[config.command].params
            and config.params.get("preset", "stdin") == "stdin"
        ):
            stdin_text = sys.stdin.read()
        code, out = run(config, stdin_text=stdin_text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except BohrLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
