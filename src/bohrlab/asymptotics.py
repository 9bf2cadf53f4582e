"""Dimension sweeps, log-log scaling-exponent fits, and the limit-constant
check n^(1/p-1/2) r(n) -> (ln 2)^(1/p-1/2) for the exact H^2 radius."""

import math
from dataclasses import dataclass

import numpy as np

from . import multiindex
from .errors import ParameterError, SweepError
from .radius import exact_h2_radius


@dataclass(frozen=True)
class SweepRecord:
    n: int
    value: float


@dataclass(frozen=True)
class FitResult:
    exponent: float
    constant: float
    model: str  # "power" | "log_power"
    r_squared: float
    window: tuple


def sweep(generator, n_list):
    """One record per dimension, in increasing n; generator is a callable
    n -> positive finite value.  A `ParameterError` from the generator
    passes through as it is; any other exception, and a value that is not
    positive and finite, ends the sweep in a `SweepError` that carries the
    records made before it."""
    ns = sorted(set(multiindex.checked_int("n", n, 1) for n in n_list))
    records = []
    for n in ns:
        try:
            value = float(generator(n))
        except ParameterError:
            raise
        except Exception as exc:
            raise SweepError(f"generator failed at n={n}: {exc}", partial=records) from exc
        if not 0.0 < value < math.inf:
            raise SweepError(f"generator returned {value} at n={n}", partial=records)
        records.append(SweepRecord(n=n, value=value))
    return records


def fit_exponent(records, model="power"):
    """Least squares on log(value) against the model's single regressor.

    power: regressor log(n); log_power: regressor log(log(n)/n) (n >= 2).
    """
    if len(records) < 3:
        raise ParameterError(f"need at least 3 records, got {len(records)}")
    ns = np.array([rec.n for rec in records], dtype=float)
    values = np.array([rec.value for rec in records], dtype=float)
    if not np.all((values > 0.0) & (values < np.inf)):
        raise ParameterError("all values must be positive and finite")
    if model == "power":
        x = np.log(ns)
    elif model == "log_power":
        if np.any(ns < 2):
            raise ParameterError("log_power model needs n >= 2")
        x = np.log(np.log(ns) / ns)
    else:
        raise ParameterError(f"unknown model: {model}")
    if np.ptp(x) == 0.0:
        raise ParameterError("degenerate design: all dimensions equal")
    y = np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(
        exponent=float(slope),
        constant=float(math.exp(intercept)),
        model=model,
        r_squared=min(r_squared, 1.0),
        window=(int(ns.min()), int(ns.max())),
    )


def h2_limit_check(p, n):
    """lhs = n^(1/p-1/2) r(n, p) against rhs = (ln 2)^(1/p-1/2); returns
    (lhs, rhs, relative error)."""
    beta = 1.0 / p - 0.5
    lhs = n**beta * exact_h2_radius(n, p)
    rhs = math.log(2.0) ** beta
    return lhs, rhs, abs(lhs - rhs) / rhs
