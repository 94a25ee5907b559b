"""Model parameters, KPP reaction terms, and parameter transforms.

The model couples a 1D line ("road", diffusivity D, no reproduction) to a 2D
half-plane ("field", diffusivity d, KPP growth f) through exchange rates:
mu sends road density into the field, nu sends the field's trace density
back onto the road.  Everything downstream (dispersion algebra, simulation)
is parameterised by the immutable :class:`ModelParams` value defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError

__all__ = [
    "ReactionFunction",
    "ModelParams",
    "KppCheck",
    "c_kpp",
    "normalize_nu",
    "symmetrize_full_plane",
    "check_kpp",
    "parse_config_text",
    "parse_config_file",
    "CONFIG_KEYS",
]


@dataclass(frozen=True)
class _Logistic:
    """The logistic f(s) = f'(0) * s * (1 - s), compared by value.

    :func:`simulate.step` and :func:`simulate.run` recognise it by its type
    and evaluate it fused into their own buffers, in the same arithmetic
    order, (f'(0) * s) * (1 - s).
    """

    f_prime_0: float

    def __call__(self, s):
        return self.f_prime_0 * s * (1.0 - s)


@dataclass(frozen=True)
class _TimeScaled:
    """f(s) / nu: a reaction in a time unit nu times longer, compared by value."""

    func: Callable[[np.ndarray | float], np.ndarray | float]
    nu: float

    def __call__(self, s):
        return self.func(s) / self.nu


@dataclass(frozen=True)
class ReactionFunction:
    """Growth term f(s) together with its linearisation rate f'(0).

    ``func`` must accept floats and numpy arrays elementwise.  KPP-class
    reactions satisfy f(0)=f(1)=0, 0<f(s)<=f'(0)*s on (0,1) and f<0 outside
    [0,1]; this is checked by sampling via :func:`check_kpp`, not enforced
    at construction (f is user-supplied code).
    """

    func: Callable[[np.ndarray | float], np.ndarray | float]
    f_prime_0: float
    name: str = "custom"

    def __call__(self, s):
        return self.func(s)

    @staticmethod
    def logistic(f_prime_0: float = 1.0) -> "ReactionFunction":
        """Canonical KPP representative f(s) = f'(0) * s * (1 - s).

        Its polynomial form is also the fixed negative extension outside
        [0,1] used by the simulator.
        """
        return ReactionFunction(func=_Logistic(f_prime_0), f_prime_0=f_prime_0, name="logistic")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the road-field system.

    D   : road diffusivity (length^2/time, >= 0)
    d   : field diffusivity (length^2/time, > 0)
    mu  : road -> field exchange rate (1/time, > 0)
    nu  : field -> road exchange rate (1/time, > 0)
    f_prime_0 : linearised growth rate f'(0) (1/time, > 0)
    reaction  : growth term; defaults to the logistic with matching f'(0)

    Instances are immutable values; share them freely between tasks.
    """

    D: float
    d: float
    mu: float
    nu: float = 1.0
    f_prime_0: float = 1.0
    reaction: ReactionFunction = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        if not all(map(math.isfinite, (self.D, self.d, self.mu, self.nu, self.f_prime_0))):
            raise ValueError(f"require finite D, d, mu, nu, f_prime_0; got {self!r}")
        if not (self.d > 0 and self.mu > 0 and self.nu > 0 and self.f_prime_0 > 0):
            raise ValueError(
                f"require d>0, mu>0, nu>0, f_prime_0>0; got d={self.d}, "
                f"mu={self.mu}, nu={self.nu}, f_prime_0={self.f_prime_0}"
            )
        if self.D < 0:
            raise ValueError(f"require D>=0; got D={self.D}")
        if self.reaction is None:
            object.__setattr__(self, "reaction", ReactionFunction.logistic(self.f_prime_0))
        elif self.reaction.f_prime_0 != self.f_prime_0:
            raise ValueError(
                f"reaction.f_prime_0={self.reaction.f_prime_0} disagrees with "
                f"f_prime_0={self.f_prime_0}"
            )

    @property
    def is_normalized(self) -> bool:
        return self.nu == 1.0


def c_kpp(params: ModelParams) -> float:
    """Baseline invasion speed of the field alone: 2*sqrt(d*f'(0))."""
    return 2.0 * math.sqrt(params.d * params.f_prime_0)


def normalize_nu(params: ModelParams) -> ModelParams:
    """Rescale time by 1/nu so the field->road rate becomes 1.

    D, d, mu, f'(0) and the reaction are each divided by nu.  Idempotent;
    speeds in the original time scale are nu times speeds computed on the
    normalised parameters.  All dispersion operations require nu=1 input.
    """
    if params.nu == 1.0:
        return params
    nu = params.nu
    f = params.reaction
    scaled = ReactionFunction(func=_TimeScaled(f.func, nu), f_prime_0=f.f_prime_0 / nu,
                              name=f.name)
    return ModelParams(
        D=params.D / nu,
        d=params.d / nu,
        mu=params.mu / nu,
        nu=1.0,
        f_prime_0=params.f_prime_0 / nu,
        reaction=scaled,
    )


def symmetrize_full_plane(params: ModelParams) -> ModelParams:
    """Reduce the two-sided (whole-plane, x-axis symmetric) problem to the half-plane.

    The road then collects the field trace from both sides and splits its
    outflow between them: nu -> 2*nu, mu -> mu/2.  Spreading speeds of the
    symmetric problem equal those of the reduced half-plane problem.
    """
    return replace(params, mu=params.mu / 2.0, nu=2.0 * params.nu)


@dataclass(frozen=True)
class KppCheck:
    """Outcome of sampling-based verification of the KPP reaction class.

    Falsy when a violation was found; ``violation`` then holds the first
    offending sample point and ``reason`` says which bound failed.
    """

    ok: bool
    violation: float | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_kpp(f: ReactionFunction, n_samples: int = 256) -> KppCheck:
    """Verify f(0)=f(1)=0, 0<f(s)<=f'(0)s on (0,1), and f<0 on (1,2] by sampling.

    ``n_samples`` points are placed uniformly in the open interval (0,1) and
    in (1,2].  Closed sampling, not a symbolic proof: f is arbitrary code.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if f(0.0) != 0.0:
        return KppCheck(False, 0.0, "f(0) != 0")
    if f(1.0) != 0.0:
        return KppCheck(False, 1.0, "f(1) != 0")
    inner = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
    vals = np.asarray(f(inner), dtype=float)
    bad = np.flatnonzero(~((vals > 0.0) & (vals <= f.f_prime_0 * inner)))
    if bad.size:
        s = float(inner[bad[0]])
        if vals[bad[0]] <= 0.0:
            return KppCheck(False, s, f"f({s}) <= 0 inside (0,1)")
        return KppCheck(False, s, f"f({s}) > f'(0)*{s}")
    outer = 1.0 + np.linspace(0.0, 1.0, n_samples + 1)[1:]
    vals = np.asarray(f(outer), dtype=float)
    bad = np.flatnonzero(~(vals < 0.0))
    if bad.size:
        s = float(outer[bad[0]])
        return KppCheck(False, s, f"f({s}) >= 0 above 1")
    return KppCheck(True)


# --- flat key=value configuration -------------------------------------------

CONFIG_KEYS = ("D", "d", "mu", "nu", "fp0", "reaction")

_DEFAULTS = {"D": 1.0, "d": 1.0, "mu": 1.0, "nu": 1.0, "fp0": 1.0, "reaction": "logistic"}


def _read_pairs(items: Iterable[tuple[str, str]], convert: Callable) -> dict:
    """Values of ``key=value`` items, a later key overriding an earlier one.

    ``items`` are (where, text) pairs; ``where`` ("line 3", "--set") opens
    every error message.  Text after ``#`` is a comment and blank items are
    skipped.  ``convert(key, value, where)`` types each value and raises
    :class:`ConfigError` for an unknown key or a bad value.
    """
    values = {}
    for where, raw in items:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        values[key] = convert(key, val.strip(), where)
    return values


def _config_value(key: str, val: str, where: str) -> float | str:
    """A parameter's value: a float, or the reaction's name (logistic only)."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if key != "reaction":
        try:
            return float(val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad number for {key}: {val!r}") from exc
    if val == "custom":
        raise ConfigError(
            "reaction=custom is not expressible in a text config; "
            "construct a ReactionFunction via the API"
        )
    if val != "logistic":
        raise ConfigError(f"{where}: unknown reaction {val!r}")
    return val


def _read_config(text: str) -> dict:
    """The parameter values a config text sets, by key."""
    return _read_pairs(((f"line {n}", raw) for n, raw in enumerate(text.splitlines(), start=1)),
                       _config_value)


def _config_params(values: dict) -> ModelParams:
    """ModelParams from parameter values by config key, defaults filled in; other keys are ignored."""
    values = {**_DEFAULTS, **values}
    try:
        return ModelParams(
            D=values["D"],
            d=values["d"],
            mu=values["mu"],
            nu=values["nu"],
            f_prime_0=values["fp0"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> ModelParams:
    """Parse a flat ``key=value`` parameter config.

    Recognised keys: D, d, mu, nu, fp0, reaction (logistic|custom).  Blank
    lines and ``#`` comments are ignored.  Unknown keys are errors, as is
    ``reaction=custom`` (code cannot be carried in a text config; build a
    custom :class:`ReactionFunction` through the API instead).
    """
    return _config_params(_read_config(text))


def _read_config_file(path) -> dict:
    """The parameter values a config file sets, by key, read as UTF-8.

    A file that cannot be opened or decoded is a ConfigError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _read_config(text)


def parse_config_file(path) -> ModelParams:
    """:func:`parse_config_text` on a file's text; an unreadable file is a ConfigError."""
    return _config_params(_read_config_file(path))
