"""Command-line surface: one subcommand per operation family, JSON or CSV
on stdout, diagnostics on stderr.

Exit codes: 0 success, 1 computational failure, 2 unknown command or key,
3 type mismatch, 4 parameter out of range.
"""

import math
import os
import sys
from dataclasses import dataclass, field

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
    seed: int = 0
    output: str = "json"
    tol: float | None = None


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


def _open_unit(x):
    return 0 < x < 2


def _radius_range(x):
    return 0 <= x < 1


def _ge_one(x):
    return x >= 1


_FAMILY_PARAMS = {
    "preset": Param("str", choices=("moebius", "extremal-g", "linear-form", "monomial", "stdin")),
    "a": Param("float", check=lambda x: 0 < x < 1),
    "fn": Param("int", check=_ge_one),
    "fq": Param("float", check=_ge_one, allow_inf=True),
    "alpha": Param("intlist"),
    "trunc": Param("int", default=family.MOEBIUS_TRUNCATION, check=lambda x: x >= 0),
}

COMMANDS = {
    "exact-h2": {
        "n": Param("int", required=True, check=_ge_one),
        "p": Param("float", required=True, check=_open_unit),
    },
    "residual": {
        "n": Param("int", required=True, check=_ge_one),
        "p": Param("float", required=True, check=_open_unit),
        "r": Param("float", required=True, check=_radius_range),
    },
    "solve": {
        "p": Param("float", required=True, check=_positive),
        "t": Param("float", default=math.inf, check=_ge_one, allow_inf=True),
        **_FAMILY_PARAMS,
    },
    "pluri": {
        "p": Param("float", required=True, check=_positive),
        "t": Param("float", default=math.inf, check=_ge_one, allow_inf=True),
        **_FAMILY_PARAMS,
    },
    "certify": {
        "n": Param("int", required=True, check=_ge_one),
        "p": Param("float", required=True, check=_positive),
        "q": Param("float", required=True, check=_ge_one, allow_inf=True),
        "C": Param("float", required=True, check=lambda x: x >= 0),
        "mode": Param("str", default="closed_form", choices=("closed_form", "numeric")),
    },
    "witness": {
        "n": Param("int", required=True, check=_ge_one),
        "p": Param("float", required=True, check=_positive),
        "q": Param("float", required=True, check=_ge_one, allow_inf=True),
        "t": Param("float", default=math.inf, check=_ge_one, allow_inf=True),
    },
    "coeff-check": {
        "t": Param("float", required=True, check=_ge_one, allow_inf=True),
        **_FAMILY_PARAMS,
    },
    "sandwich": {
        "n": Param("int", required=True, check=_ge_one),
        "p": Param("float", required=True, check=_open_unit),
        "q": Param("float", default=2.0, check=_ge_one, allow_inf=True),
        "C": Param("float", default=1.0, check=lambda x: x >= 0),
    },
    "maximize-ball": {
        "p": Param("float", required=True, check=_positive),
        "t": Param("float", required=True, check=lambda x: 1 <= x < math.inf),
        "r": Param("float", required=True, check=_radius_range),
        **_FAMILY_PARAMS,
    },
    "sweep": {
        "generator": Param(
            "str",
            required=True,
            choices=("exact-h2", "certify-closed", "certify-numeric", "witness"),
        ),
        "p": Param("float", required=True, check=_positive),
        "q": Param("float", default=2.0, check=_ge_one, allow_inf=True),
        "C": Param("float", default=1.0, check=lambda x: x >= 0),
        "t": Param("float", default=math.inf, check=_ge_one, allow_inf=True),
        "n-list": Param("intlist", required=True),
    },
    "fit": {
        "generator": Param(
            "str",
            required=True,
            choices=("exact-h2", "certify-closed", "certify-numeric", "witness"),
        ),
        "p": Param("float", required=True, check=_positive),
        "q": Param("float", default=2.0, check=_ge_one, allow_inf=True),
        "C": Param("float", default=1.0, check=lambda x: x >= 0),
        "t": Param("float", default=math.inf, check=_ge_one, allow_inf=True),
        "n-list": Param("intlist", required=True),
        "model": Param("str", default="power", choices=("power", "log_power")),
    },
    "limit-check": {
        "n": Param("int", required=True, check=_ge_one),
        "p": Param("float", required=True, check=_open_unit),
    },
}

_COMMON = {
    "seed": Param("int", default=0, check=lambda x: 0 <= x < 2**64),
    "output": Param("str", default="json", choices=("json", "csv")),
    "tol": Param("float", check=_positive),
    "config": Param("str"),
}

HELP_LINES = [
    "exact-h2       closed-form H^2 class radius (n, p < 2)",
    "residual       defining-equation residual of the H^2 radius at r",
    "solve          per-family radius by bisection on the powered majorant",
    "pluri          pluriharmonic radius with doubled coefficient weights",
    "certify        certified lower bound from a per-degree q-sum certificate",
    "witness        linear-form witness upper bound on the class radius",
    "coeff-check    ball coefficient bound check for certified presets",
    "sandwich       lower certificate vs exact upper consistency",
    "maximize-ball  powered majorant over an l_t ball at fixed radius",
    "sweep          evaluate a generator over a list of dimensions (CSV/JSON)",
    "fit            sweep plus log-log scaling-exponent fit",
    "limit-check    limit-constant check for the H^2 radius",
]


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
    specs = {**COMMANDS[command], **_COMMON}

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
        elif spec.default is not None or key in ("tol",):
            resolved[key] = spec.default

    config = RunConfig(
        command=command,
        params={k: v for k, v in resolved.items() if k not in ("seed", "output", "tol")},
        seed=resolved.get("seed", 0),
        output=resolved.get("output", "json"),
        tol=resolved.get("tol"),
    )
    return config


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
    raise TypeError(f"cannot serialize {type(value)}")


def emit_json(doc):
    return _fmt(doc) + "\n"


def _csv_num(value):
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".17g")
    return str(value)


def emit_sweep_csv(records):
    lines = [CSV_HEADER, "n,value,generator,p,q,t"]
    for rec in records:
        lines.append(
            ",".join(
                [
                    str(rec.n),
                    _csv_num(rec.value),
                    rec.generator,
                    _csv_num(rec.params.get("p")),
                    _csv_num(rec.params.get("q")),
                    _csv_num(rec.params.get("t")),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _resolve_family(params, p, stdin_text):
    preset = params.get("preset")
    if preset is None or preset == "stdin":
        if stdin_text is None or not stdin_text.strip():
            raise UsageError(EXIT_TYPE, "no --preset given and no family JSON on stdin")
        return family.from_json(stdin_text)
    if preset == "moebius":
        if "a" not in params:
            raise UsageError(EXIT_TYPE, "preset moebius needs --a")
        return family.moebius(params["a"], params.get("trunc", family.MOEBIUS_TRUNCATION))
    if preset == "extremal-g":
        if "fn" not in params:
            raise UsageError(EXIT_TYPE, "preset extremal-g needs --fn")
        return family.extremal_g(params["fn"], p)
    if preset == "linear-form":
        if "fn" not in params or "fq" not in params:
            raise UsageError(EXIT_TYPE, "preset linear-form needs --fn and --fq")
        return family.linear_form(params["fn"], params["fq"], params.get("t", math.inf))
    if preset == "monomial":
        if "alpha" not in params:
            raise UsageError(EXIT_TYPE, "preset monomial needs --alpha")
        return family.normalized_monomial(tuple(params["alpha"]), params.get("t", math.inf))
    raise UsageError(EXIT_RANGE, f"unknown preset: {preset}")


def _config_echo(config):
    doc = {"seed": config.seed, "output": config.output}
    if config.tol is not None:
        doc["tol"] = config.tol
    for key, value in sorted(config.params.items()):
        doc[key] = value
    return doc


_SWEEP_GENERATORS = {
    "exact-h2": lambda prm: (lambda n: radius.exact_h2_radius(n, prm["p"])),
    "certify-closed": lambda prm: (
        lambda n: bounds.certified_lower_bound(
            bounds.CertificateInput(n=n, p=prm["p"], q=prm["q"], C=prm["C"]),
            mode="closed_form",
        ).value
    ),
    "certify-numeric": lambda prm: (
        lambda n: bounds.certified_lower_bound(
            bounds.CertificateInput(n=n, p=prm["p"], q=prm["q"], C=prm["C"]),
            mode="numeric",
        ).value
    ),
    "witness": lambda prm: (
        lambda n: bounds.witness_upper_linear_form(n, prm["p"], prm["q"], prm["t"]).value
    ),
}


def run(config, stdin_text=None):
    """Dispatch the resolved config; returns (exit_code, stdout_text)."""
    prm = config.params
    tol = config.tol if config.tol is not None else radius.DEFAULT_TOL
    cmd = config.command
    result = None
    records = None

    if cmd == "exact-h2":
        result = {"value": radius.exact_h2_radius(prm["n"], prm["p"])}
    elif cmd == "residual":
        result = {"value": radius.h2_defining_residual(prm["n"], prm["p"], prm["r"])}
    elif cmd == "solve":
        f = _resolve_family(prm, prm["p"], stdin_text)
        domain = majorant.DomainSpec.from_t(prm.get("t", math.inf))
        res = radius.solve_bohr_radius(f, prm["p"], domain, tol=tol, seed=config.seed)
        result = res.to_dict()
    elif cmd == "pluri":
        if prm.get("preset") not in (None, "stdin"):
            holo = _resolve_family(prm, prm["p"], None)
            anti = family.explicit(holo.dimension, {}, label="zero")
        else:
            import json as _json

            if stdin_text is None or not stdin_text.strip():
                raise UsageError(EXIT_TYPE, "pluri needs a preset or stdin JSON")
            doc = _json.loads(stdin_text)
            holo = family.from_json(_json.dumps(doc["holo"]))
            anti = family.from_json(_json.dumps(doc["anti"]))
        pf = radius.PluriharmonicFamily(holo=holo, anti=anti)
        res = radius.pluriharmonic_radius(
            pf, prm["p"], prm.get("t", math.inf), tol=tol, seed=config.seed
        )
        result = res.to_dict()
    elif cmd == "certify":
        cert = bounds.CertificateInput(n=prm["n"], p=prm["p"], q=prm["q"], C=prm["C"])
        res = bounds.certified_lower_bound(cert, mode=prm["mode"])
        result = res.to_dict()
    elif cmd == "witness":
        res = bounds.witness_upper_linear_form(prm["n"], prm["p"], prm["q"], prm["t"])
        result = res.to_dict()
    elif cmd == "coeff-check":
        f = _resolve_family(prm, 1.0, stdin_text)
        ok, worst = bounds.coefficient_bound_check(f, prm["t"])
        result = {"ok": ok, "worst_ratio": worst}
    elif cmd == "sandwich":
        cert = bounds.CertificateInput(n=prm["n"], p=prm["p"], q=prm["q"], C=prm["C"])
        lower_cf = bounds.certified_lower_bound(cert, mode="closed_form")
        lower_num = bounds.certified_lower_bound(cert, mode="numeric")
        upper_value = radius.exact_h2_radius(prm["n"], prm["p"])
        upper = radius.RadiusResult(
            value=upper_value, method="closed_form", residual=0.0,
            bracket=(upper_value, upper_value),
        )
        result = {
            "lower_closed_form": lower_cf.to_dict(),
            "lower_numeric": lower_num.to_dict(),
            "upper": upper.to_dict(),
            "ok": bounds.sandwich_check(lower_cf, upper)
            and bounds.sandwich_check(lower_num, upper),
        }
    elif cmd == "maximize-ball":
        f = _resolve_family(prm, prm["p"], stdin_text)
        mv = majorant.powered_majorant_ball(
            f, prm["p"], prm["t"], prm["r"], seed=config.seed
        )
        result = {
            "value": mv.value,
            "exactness": mv.exactness,
            "maximizer": None if mv.maximizer is None else list(mv.maximizer),
        }
    elif cmd in ("sweep", "fit"):
        gen = _SWEEP_GENERATORS[prm["generator"]](prm)
        gen_params = {k: prm.get(k) for k in ("p", "q", "t") if k in prm}
        records = asymptotics.sweep(
            gen, prm["n-list"], label=prm["generator"], params=gen_params
        )
        if cmd == "fit":
            fit = asymptotics.fit_exponent(records, model=prm["model"])
            result = {
                "exponent": fit.exponent,
                "constant": fit.constant,
                "model": fit.model,
                "r_squared": fit.r_squared,
                "window": list(fit.window),
                "records": [[rec.n, rec.value] for rec in records],
            }
        else:
            result = {"records": [[rec.n, rec.value] for rec in records]}
    elif cmd == "limit-check":
        lhs, rhs, rel_err = asymptotics.h2_limit_check(prm["p"], prm["n"])
        result = {"lhs": lhs, "rhs": rhs, "rel_err": rel_err}
    else:  # pragma: no cover - parse_config rejects unknown commands
        raise UsageError(EXIT_UNKNOWN, f"unknown command: {cmd}")

    if cmd == "sweep" and config.output == "csv":
        return EXIT_OK, emit_sweep_csv(records)
    doc = {"command": cmd, "config": _config_echo(config), "result": result}
    return EXIT_OK, emit_json(doc)


def _threads_cap():
    raw = os.environ.get("BOHR_LAB_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(EXIT_TYPE, f"BOHR_LAB_THREADS must be an integer, got {raw!r}")
    if cap < 0:
        raise UsageError(EXIT_RANGE, f"BOHR_LAB_THREADS must be >= 0, got {cap}")
    return cap


def main(argv=None, stdin_text=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _threads_cap()  # computation is sequential; the cap is validated only
        config = parse_config(argv)
    except UsageError as exc:
        if exc.code == EXIT_OK:
            print("usage: bohr-lab COMMAND [--key value ...]\n", file=sys.stdout)
            print("\n".join(HELP_LINES), file=sys.stdout)
            return EXIT_OK
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    try:
        if stdin_text is None and config.command in ("solve", "pluri", "maximize-ball", "coeff-check"):
            if config.params.get("preset") in (None, "stdin"):
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
