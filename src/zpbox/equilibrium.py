"""Zero-point-force strain equilibrium of the elastically restrained box.

The combined energy of the ground-state particle and the spring, as a
function of the wall displacement y (in units of the unstrained size d), is

    E(y) = 1 / (1 + y)^2 + (K/2) y^2        [units eps0]

The confinement term always gains from expansion, so for every finite
spring stiffness K the minimum sits at a strained size ell = 1 + y* > 1,
where the zero-point force 2/ell^3 balances the spring pull K (ell - 1).
Equivalently ell is the unique root > 1 of

    K ell^4 - K ell^3 - 2 = 0.

The drop of E from y = 0 to y* is the binding energy of the particle and
the strained box as a single unit; the curvature at the minimum defines
the stiffened force constant K' = K + 6/ell^4 that governs small box-size
oscillations.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NumericalError, ValidationError

_GRID_POINTS = 10_000
_GOLDEN_TOL = 1e-12
# a Newton correction below this ends the solve: it is far above the few-eps
# rounding noise of one step, which can make iterates cycle, and the next
# iterate, returned, is off by O(correction^2) only
_REL_TOL = 64.0 * sys.float_info.epsilon
_MAX_ITERATIONS = 200
_FOURTH_ROOT_OF_2 = 2.0**0.25


def _check_stiffness(K: float) -> float:
    K = float(K)
    if not math.isfinite(K) or K <= 0.0:
        raise ValidationError(f"stiffness K must be positive and finite, got {K!r}")
    return K


@dataclass(frozen=True)
class StrainSolution:
    """Equilibrium of the particle + spring system at stiffness K.

    ``strain`` is held separately from ``ell`` (= 1 + strain) because at
    large K the strain is far below the floating-point resolution of ell.
    """

    K: float
    ell: float  # equilibrium relative box size d'/d, > 1
    strain: float  # ell - 1
    residual: float  # |K*strain - 2/ell^3| / (2/ell^3), relative force balance
    binding_exact: float  # E(y*) - E(0), always < 0
    binding_first_order: float  # -strain/ell^3, the small-strain estimate
    strain_energy: float  # (K/2) strain^2
    effective_stiffness: float  # K' = K + 6/ell^4, curvature at the minimum


def total_energy(y: float, K: float, n: int = 1) -> float:
    """Combined particle + spring energy at wall displacement y.

    The particle contributes n^2/(1+y)^2 (it is pinned to level n, by
    default the ground state); the spring contributes (K/2) y^2.
    """
    K = _check_stiffness(K)
    y = float(y)
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"level n must be an integer >= 1, got {n!r}")
    size = 1.0 + y
    if not size > 0.0:
        raise DomainError(f"box collapse: 1 + y = {size} must stay positive")
    return (n * n) / (size * size) + 0.5 * K * y * y


def _bracketed_newton(
    newton, lo: float, hi: float, s: float, scale: float = 0.0
) -> float:
    """Safeguarded Newton-bisection for an increasing function G on [lo, hi].

    ``newton(s)`` returns ``(G(s), Newton iterate from s)``.  The sign of G
    narrows the bracket; an iterate outside it is replaced by the bracket's
    midpoint, so the search never leaves [lo, hi] (Brent 1973, ch. 4).
    Returns the iterate after the first correction of at most
    _REL_TOL * (scale + s), kept inside the bracket: scale 0 asks for s to
    float resolution, scale 1 for ell = 1 + s to float resolution.
    """
    for _ in range(_MAX_ITERATIONS):
        g, s_next = newton(s)
        if g == 0.0:
            return s
        if g < 0.0:
            lo = s
        else:
            hi = s
        if abs(s_next - s) <= _REL_TOL * (scale + s):
            return min(max(s_next, lo), hi)
        if not lo <= s_next <= hi:
            s_next = 0.5 * (lo + hi)
        s = s_next
    raise NumericalError(
        f"bracketed Newton solve did not converge in {_MAX_ITERATIONS} steps "
        f"(bracket [{lo!r}, {hi!r}])"
    )


def _solve_strain(K: float) -> float:
    """Root of K s (1+s)^3 = 2 for s > 0, solved in the strain variable.

    G(s) = K s - 2/(1+s)^3 is concave and increasing with G(0) = -2, and
    K s (1+s)^3 > 2 at s = 2/K and at s = (2/K)^(1/4), so the smaller of
    the two closes the bracket for every K.  Newton runs from that upper
    end in the cancellation-free form s <- r^3 (2 + 6 s r) / (K + 6 r^4),
    r = 1/(1+s).  For s >= 1 the sign comes from K s (1+s)^3 - 2 and the
    step is scaled by (1+s)^4, with K (1+s)^4 formed as (K^(1/4) (1+s))^4,
    so nothing overflows or goes subnormal anywhere in the accepted K range.
    """
    k4 = math.sqrt(math.sqrt(K))

    def newton(s: float) -> tuple[float, float]:
        if s < 1.0:
            r = 1.0 / (1.0 + s)
            r3 = r * r * r
            return K * s - 2.0 * r3, r3 * (2.0 + 6.0 * s * r) / (K + 6.0 * r3 * r)
        q = k4 * (1.0 + s)
        q4 = q * q * q * q  # K (1+s)^4
        return s * q4 / (1.0 + s) - 2.0, (2.0 + 8.0 * s) / (q4 + 6.0)

    hi = min(2.0 / K, _FOURTH_ROOT_OF_2 / k4)
    s = _bracketed_newton(newton, 0.0, hi, hi)
    if s < 1.0:
        # a last correction from the expanded K s (1 + 3s + 3s^2 + s^3) - 2,
        # which rounds less than the r form: the strain ends within ~2 ulps
        p = K * s * (1.0 + s * (3.0 + s * (3.0 + s))) - 2.0
        s -= p / (K * (1.0 + s * (6.0 + s * (9.0 + 4.0 * s))))
    return s


def binding_energy(sol: StrainSolution) -> tuple[float, float]:
    """Energy gained by relaxing from the rigid size to the strained one.

    Returns ``(exact, first_order)``: the exact drop E(y*) - E(0) and the
    leading small-strain estimate -strain/ell^3.  Both are negative; their
    gap grows linearly with strain, which is what makes the first-order
    form usable only in the stiff-spring regime.
    """
    return _binding(sol.K, sol.strain)


def _binding(K: float, s: float) -> tuple[float, float]:
    r = 1.0 / (1.0 + s)
    # 1/ell^2 - 1 written as -s(s+2)/ell^2 to avoid cancellation at tiny s
    exact = 0.5 * s * (K * s) - s * (s + 2.0) * r * r
    first = -s * r**3
    return exact, first


def _stiffened(K: float, ell: float) -> float:
    # 6/ell^4 as 6 (1/ell)^4: ell^4 overflows for the softest springs
    return K + 6.0 * (1.0 / ell) ** 4


def effective_stiffness(sol: StrainSolution) -> float:
    """Curvature K' = K + 6/ell^4 of the total energy at the strained minimum.

    The confinement term steepens the well, so K' > K always: the strained
    box oscillates faster than the bare spring would.  (A first-order-in-
    strain reading would give a 6/ell^2 shift; the exact second derivative
    is 6/ell^4, and the finite-difference checks pin the latter.)
    """
    return _stiffened(sol.K, sol.ell)


def solve_equilibrium(K: float) -> StrainSolution:
    """Solve the strain equilibrium for stiffness K.

    Finds the unique relative size ell > 1 where the zero-point force
    balances the spring, by a bracketed Newton solve of the force balance
    in the strain variable, to float resolution for every finite K > 0.
    All derived energies and the stiffened force constant are populated on
    the result.
    """
    K = _check_stiffness(K)
    s = _solve_strain(K)
    ell = 1.0 + s
    balance = 2.0 * (1.0 / ell) ** 3
    exact, first = _binding(K, s)
    return StrainSolution(
        K=K,
        ell=ell,
        strain=s,
        residual=abs(K * s - balance) / balance,
        binding_exact=exact,
        binding_first_order=first,
        strain_energy=0.5 * s * (K * s),
        effective_stiffness=_stiffened(K, ell),
    )


def perturbed_energy(sol: StrainSolution, eta: float, sign: int = 1) -> float:
    """Total energy with the wall displaced by sign*eta from equilibrium.

    Valid only inside the strain window |eta| < strain, where the
    expansion E = E_min + (K'/2) eta^2 + O(eta^3) holds; the linear term
    cancels exactly at equilibrium, which is what lets the particle and
    the spring trade energy at equal and opposite linear rates.
    """
    eta = float(eta)
    if sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign!r}")
    if not abs(eta) < sol.strain:
        raise DomainError(
            f"|eta| = {abs(eta)!r} must stay below the strain {sol.strain!r}"
        )
    y = sol.strain + sign * eta
    size = sol.ell + sign * eta
    if not size > 0.0:
        raise DomainError(f"box collapse: ell + eta = {size} must stay positive")
    return 1.0 / (size * size) + 0.5 * sol.K * y * y


def minimize_oracle(K: float) -> float:
    """Locate the energy minimum by direct search; returns the displacement y*.

    Independent check on :func:`solve_equilibrium`: a coarse scan of
    total_energy over 10^4 points on (-0.5, y_max], followed by
    golden-section refinement of the bracketing interval down to 1e-12.
    The refinement compares energies exactly, in rational arithmetic,
    because in double precision the well is numerically flat within ~1e-8
    of the minimum, which would cap the attainable localization.
    """
    K = _check_stiffness(K)
    # (K/2) y_max^2 > 2 = E(0) + 1 guarantees the minimum is interior
    y_max = 2.1 / math.sqrt(K)
    ys = np.linspace(-0.5, y_max, _GRID_POINTS + 1)[1:]
    sizes = 1.0 + ys
    energies = 1.0 / (sizes * sizes) + 0.5 * K * ys * ys
    i = int(np.argmin(energies))
    lo = ys[max(i - 1, 0)]
    hi = ys[min(i + 1, len(ys) - 1)]
    return _golden_section(K, float(lo), float(hi))


def _golden_section(K: float, a: float, b: float) -> float:
    """Golden-section search on [a, b] over float abscissae, exact energies.

    Stops at _GOLDEN_TOL, or earlier where the abscissae reach float resolution.
    """
    half_k = Fraction(K) / 2

    def f(y: float) -> Fraction:
        x = Fraction(y)
        return 1 / (1 + x) ** 2 + half_k * x * x

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2
