"""Inter-molecular pair potentials and their stability margins.

Four families are supported:

    lennard_jones           phi(r) = c1/r^d1 - c2/r^d2          (d1 > d2 > 2)
    buckingham              phi(r) = alpha*exp(-beta*r) - gamma/r^eta
    normalized_buckingham   the (depth, r_min, xi, eta) parametrization of the
                            Buckingham family, with minimum -depth at r_min
    spring                  phi(r) = k*r^2/2 + beta*r^4/4

All specs are immutable records; every operation here is a pure function of
(spec, r), so they are safe to share across threads.  `derivatives` also
takes an array of distances, evaluated with numpy's power and exponential:
the margin scan brackets its zeros from one such pass over its grid, and
every state is still computed on Python floats.

The quantity that controls the stability of the fully symmetric cluster
states is the margin

    sigma_k(r) = phi''(r) + (k/r) * phi'(r)

with k = 3 for the triangle and k in {3, 7} for the tetrahedron.  For the
Lennard-Jones and spring families the zeros of the margin along the trivial
branch have closed forms; `closed_form_thresholds` returns them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LennardJones",
    "Buckingham",
    "NormalizedBuckingham",
    "PolynomialSpring",
    "PotentialSpec",
    "Threshold",
    "eval_potential",
    "derivatives",
    "stability_margin",
    "closed_form_thresholds",
    "buckingham_interval_certificate",
    "normalized_buckingham_convert",
    "potential_from_json",
    "potential_to_json",
    "ConfigError",
]


class ConfigError(ValueError):
    """A malformed potential/config description; carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class LennardJones:
    """phi(r) = c1/r^delta1 - c2/r^delta2 with c1, c2 > 0 and delta1 > delta2 > 2."""

    c1: float
    c2: float
    delta1: float
    delta2: float

    def __post_init__(self):
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("Lennard-Jones coefficients must be positive")
        if not (self.delta1 > self.delta2 > 2):
            raise ValueError("Lennard-Jones exponents must satisfy delta1 > delta2 > 2")


@dataclass(frozen=True)
class Buckingham:
    """phi(r) = alpha*exp(-beta*r) - gamma/r^eta, all parameters positive."""

    alpha: float
    beta: float
    gamma: float
    eta: float

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma, self.eta) <= 0:
            raise ValueError("Buckingham parameters must be positive")


@dataclass(frozen=True)
class NormalizedBuckingham:
    """Buckingham potential normalized to depth and minimum location.

    Stored in its (depth, r_min, xi, eta) form and converted on use, so that
    statements independent of depth and r_min can be checked by sampling them.
    Requires xi > eta; the minimum value is -depth at r = r_min when
    xi > eta + 1.
    """

    depth: float
    r_min: float
    xi: float
    eta: float

    def __post_init__(self):
        if min(self.depth, self.r_min, self.xi, self.eta) <= 0:
            raise ValueError("normalized Buckingham parameters must be positive")
        if not self.xi > self.eta:
            raise ValueError("normalized Buckingham requires xi > eta")


@dataclass(frozen=True)
class PolynomialSpring:
    """phi(r) = k*r^2/2 + beta*r^4/4: Hooke for beta = 0, hard/soft for beta >< 0."""

    k: float
    beta: float = 0.0

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("spring stiffness k must be positive")


PotentialSpec = LennardJones | Buckingham | NormalizedBuckingham | PolynomialSpring


def derivatives(spec: PotentialSpec, r):
    """(phi, phi', phi'') at r > 0, a float or a numpy array of them.

    A float is evaluated with Python's `**` and `math.exp`, as every
    corrector iterate needs; an array with numpy's, which can differ from
    them in the last bit.  So array values may decide where to look (the
    margin scan's brackets) but never give a state.
    """
    if isinstance(r, np.ndarray):
        if not (r > 0).all():
            raise ValueError("potential evaluated at a non-positive distance")
        exp = np.exp
    elif not r > 0:
        raise ValueError(f"potential evaluated at non-positive distance r={r}")
    else:
        exp = math.exp
    if isinstance(spec, LennardJones):
        c1, c2, d1, d2 = spec.c1, spec.c2, spec.delta1, spec.delta2
        return (
            c1 * r ** -d1 - c2 * r ** -d2,
            -c1 * d1 * r ** (-d1 - 1) + c2 * d2 * r ** (-d2 - 1),
            c1 * d1 * (d1 + 1) * r ** (-d1 - 2) - c2 * d2 * (d2 + 1) * r ** (-d2 - 2),
        )
    if isinstance(spec, Buckingham):
        al, be, ga, eta = spec.alpha, spec.beta, spec.gamma, spec.eta
        e = exp(-be * r)
        return (
            al * e - ga * r ** -eta,
            -al * be * e + ga * eta * r ** (-eta - 1),
            al * be * be * e - ga * eta * (eta + 1) * r ** (-eta - 2),
        )
    if isinstance(spec, NormalizedBuckingham):
        # Combined-exponent form: alpha*exp(-beta*r) = depth*eta/(xi-eta) * exp(xi*(1-r/r_min)),
        # which stays finite for large xi where materializing alpha = O(e^xi) would overflow.
        D, R, xi, eta = spec.depth, spec.r_min, spec.xi, spec.eta
        s = D / (xi - eta)
        e = exp(xi * (1.0 - r / R))
        pw = (R / r) ** eta
        return (
            s * (eta * e - xi * pw),
            s * xi * eta * (-e / R + pw / r),
            s * xi * eta * (xi * e / (R * R) - (eta + 1.0) * pw / (r * r)),
        )
    if isinstance(spec, PolynomialSpring):
        k, be = spec.k, spec.beta
        return (0.5 * k * r * r + 0.25 * be * r ** 4, k * r + be * r ** 3, k + 3.0 * be * r * r)
    raise TypeError(f"unknown potential spec {type(spec).__name__}")


def eval_potential(spec: PotentialSpec, r: float, order: int = 0) -> float:
    """phi(r), phi'(r) or phi''(r) according to order in {0, 1, 2}."""
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
    return derivatives(spec, r)[order]


def stability_margin(spec: PotentialSpec, r: float, k_coeff: float) -> float:
    """sigma_k(r) = phi''(r) + (k_coeff/r) * phi'(r)."""
    _, d1, d2 = derivatives(spec, r)
    return d2 + k_coeff * d1 / r


@dataclass(frozen=True)
class Threshold:
    """A closed-form parameter value where a stability margin vanishes.

    `problem` is "triangle" or "tetrahedron"; `margin_coefficient` identifies
    which margin (3 or 7) has its zero at `value` along the trivial branch.
    """

    problem: str
    margin_coefficient: int
    value: float


def closed_form_thresholds(spec: PotentialSpec, problem: str) -> list[Threshold]:
    """Closed-form stability boundaries of the trivial branch, possibly empty.

    Lennard-Jones: sigma_k(r) = c1 d1 (d1+1-k)/r^(d1+2) - c2 d2 (d2+1-k)/r^(d2+2)
    has one root when (d1+1-k)(d2+1-k) > 0 and none otherwise.  So sigma_3
    (delta2 > 2) crosses zero at a single area on the triangle and a single
    volume on the tetrahedron, joined there by the sigma_7 boundary when
    both exponents lie above 6 or both below.  Soft springs (beta < 0) cross
    once per margin; hard and Hooke springs never do.  The Buckingham family
    has no closed form here and returns [].
    """
    if problem not in ("triangle", "tetrahedron"):
        raise ValueError(f"problem must be 'triangle' or 'tetrahedron', got {problem!r}")
    out: list[Threshold] = []
    if isinstance(spec, LennardJones):
        c1, c2, d1, d2 = spec.c1, spec.c2, spec.delta1, spec.delta2
        if problem == "triangle":
            # sigma_3(r) = c1 d1 (d1-2)/r^(d1+2) - c2 d2 (d2-2)/r^(d2+2); root in r,
            # mapped to area through a_A = 2 sqrt(A)/3^(1/4).
            ratio = (c1 * d1 * (d1 - 2.0)) / (c2 * d2 * (d2 - 2.0))
            out.append(Threshold("triangle", 3, math.sqrt(3.0) / 4.0 * ratio ** (2.0 / (d1 - d2))))
        else:
            # volume through a_V^3 = 6 sqrt(2) V
            ratio = (c1 * d1 * (d1 - 2.0)) / (c2 * d2 * (d2 - 2.0))
            out.append(Threshold("tetrahedron", 3, math.sqrt(2.0) / 12.0 * ratio ** (3.0 / (d1 - d2))))
            if (d1 - 6.0) * (d2 - 6.0) > 0.0:
                ratio7 = (c1 * d1 * (d1 - 6.0)) / (c2 * d2 * (d2 - 6.0))
                out.append(Threshold("tetrahedron", 7, math.sqrt(2.0) / 12.0 * ratio7 ** (3.0 / (d1 - d2))))
        return out
    if isinstance(spec, PolynomialSpring):
        k, be = spec.k, spec.beta
        if be >= 0.0:
            return []  # sigma_3 = 4k + 6 beta r^2 and sigma_7 = 8k + 10 beta r^2 stay positive
        if problem == "triangle":
            out.append(Threshold("triangle", 3, -k / (2.0 * math.sqrt(3.0) * be)))
        else:
            out.append(Threshold("tetrahedron", 3, math.sqrt(-k ** 3 / (243.0 * be ** 3))))
            out.append(Threshold("tetrahedron", 7, math.sqrt(-8.0 * k ** 3 / (1125.0 * be ** 3))))
        return out
    if isinstance(spec, (Buckingham, NormalizedBuckingham)):
        return []
    raise TypeError(f"unknown potential spec {type(spec).__name__}")


def normalized_buckingham_convert(depth: float, r_min: float, xi: float, eta: float) -> tuple[float, float, float]:
    """(alpha, beta, gamma) of the Buckingham form equivalent to (depth, r_min, xi, eta)."""
    if xi <= eta:
        raise ValueError("conversion requires xi > eta")
    if min(depth, r_min, xi, eta) <= 0:
        raise ValueError("conversion requires positive parameters")
    alpha = depth * eta * math.exp(xi) / (xi - eta)
    beta = xi / r_min
    gamma = depth * xi * r_min ** eta / (xi - eta)
    return alpha, beta, gamma


def buckingham_interval_certificate(spec: PotentialSpec) -> bool:
    """Sufficient condition for a nonempty stable area interval (triangle).

    True iff alpha*beta*e^-4 > gamma*eta*(eta-2)*(beta/4)^(eta+1), evaluated
    at the maximum of the repulsive side of the margin.  Requires a
    Buckingham-family spec with eta > 2.
    """
    if isinstance(spec, NormalizedBuckingham):
        # The inequality is scale free in depth and r_min:
        #   lhs/rhs = e^(xi-4) / ((eta-2) * (xi/4)^(eta+1)),
        # but we evaluate the converted parameters directly for transparency.
        alpha, beta, gamma = normalized_buckingham_convert(spec.depth, spec.r_min, spec.xi, spec.eta)
        eta = spec.eta
    elif isinstance(spec, Buckingham):
        alpha, beta, gamma, eta = spec.alpha, spec.beta, spec.gamma, spec.eta
    else:
        raise ValueError("interval certificate applies to Buckingham-family specs only")
    if eta <= 2:
        raise ValueError("interval certificate requires eta > 2")
    return alpha * beta * math.exp(-4.0) > gamma * eta * (eta - 2.0) * (beta / 4.0) ** (eta + 1.0)


_FAMILIES = {
    "lennard_jones": (LennardJones, ("c1", "c2", "delta1", "delta2")),
    "buckingham": (Buckingham, ("alpha", "beta", "gamma", "eta")),
    "normalized_buckingham": (NormalizedBuckingham, ("depth", "r_min", "xi", "eta")),
    "spring": (PolynomialSpring, ("k", "beta")),
}


def potential_from_json(obj: dict) -> PotentialSpec:
    """Build a spec from {"family": ..., "params": {...}}; bad keys -> ConfigError."""
    if not isinstance(obj, dict):
        raise ConfigError("potential description must be an object", key="potential")
    family = obj.get("family")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown potential family {family!r}", key="family")
    cls, names = _FAMILIES[family]
    params = obj.get("params")
    if not isinstance(params, dict):
        raise ConfigError("potential params must be an object", key="params")
    for key in params:
        if key not in names:
            raise ConfigError(f"unknown parameter {key!r} for family {family!r}", key=key)
    kwargs = {}
    for name in names:
        if name not in params:
            if cls is PolynomialSpring and name == "beta":
                continue  # defaults to a Hooke spring
            raise ConfigError(f"missing parameter {name!r} for family {family!r}", key=name)
        value = params[name]
        message = f"parameter {name!r} must be a finite number, got {value!r}"
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(message, key=name)
        try:
            value = float(value)  # an int too large for a float overflows here
        except OverflowError:
            raise ConfigError(message, key=name) from None
        if not math.isfinite(value):
            raise ConfigError(message, key=name)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {family} parameters: {exc}", key="params") from exc


def potential_to_json(spec: PotentialSpec) -> dict:
    for family, (cls, names) in _FAMILIES.items():
        if type(spec) is cls:
            return {"family": family, "params": {n: getattr(spec, n) for n in names}}
    raise TypeError(f"unknown potential spec {type(spec).__name__}")
