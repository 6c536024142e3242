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

A scalar solve is plain Python arithmetic; numpy is imported on first use
by the array functions, ``check_grid`` and ``equilibria``.
"""

import contextlib
import math
import sys
from typing import NamedTuple

from .errors import DomainError, NumericalError, ValidationError
from .model import check_finite, check_positive
from .spectrum import check_level

_GOLDEN_TOL = 1e-12
# a Newton correction below this ends the solve: it is far above the few-eps
# rounding noise of one step, which can make iterates cycle, and the next
# iterate, returned, is off by O(correction^2) only
_REL_TOL = 64.0 * sys.float_info.epsilon
_MAX_ITERATIONS = 200
_FOURTH_ROOT_OF_2 = 2.0**0.25


def check_grid(grid, name: str, positive: bool = False):
    """``grid`` as a float64 array if non-empty, strictly increasing, finite and
    >= 0 (> 0 if ``positive``); else ValidationError, its message led by name.
    A -0.0, which passes ``>= 0``, is returned as +0.0."""
    import numpy as np

    rule = f"{name} must be finite and {'>' if positive else '>='} 0"
    try:
        values = np.array(grid, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValidationError(f"{rule}, got an int past the float range") from None
    if values.ndim != 1 or len(values) == 0:
        raise ValidationError(f"{name} must be a non-empty sequence")
    bad = ~np.isfinite(values) | (values <= 0.0 if positive else values < 0.0)
    if bad.any():
        raise ValidationError(f"{rule}, got {values[bad][0].item()!r}")
    if (values[1:] <= values[:-1]).any():
        raise ValidationError(f"{name} must be strictly increasing")
    values += 0.0  # -0.0 + 0.0 is +0.0
    return values


class StrainSolution(NamedTuple):
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
    default the ground state, n <= spectrum.MAX_LEVEL); the spring
    contributes (K/2) y^2.  NumericalError where that overflows.
    """
    K = check_positive(K, "stiffness K")
    y = check_finite(y, "displacement y")
    n = check_level(n, "level n")
    size = 1.0 + y
    if not size > 0.0:
        raise DomainError(f"box collapse: 1 + y = {size} must stay positive")
    spring = 0.5 * K * y * y
    if math.isinf(spring):
        raise NumericalError(f"the spring energy (K/2) y^2 overflows at y = {y!r}")
    return (n * n) / (size * size) + spring


def _where(cond, a, b):
    """a if cond else b for a bool; np.where for an array condition."""
    if isinstance(cond, bool):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b)


def _bracketed_newton(newton, lo, hi, s, scale=0.0):
    """Safeguarded Newton-bisection for an increasing function G on [lo, hi].

    ``newton(s)`` returns ``(G(s), Newton iterate from s)``.  The sign of G
    narrows the bracket; an iterate outside it is replaced by the bracket's
    midpoint, so the search never leaves [lo, hi] (Brent 1973, ch. 4).
    Returns the iterate after the first correction of at most
    _REL_TOL * (scale + s), kept inside the bracket: scale 0 asks for s to
    float resolution, scale 1 for ell = 1 + s to float resolution.

    Works on floats or elementwise on arrays: each element keeps its own
    bracket and its result freezes at its own first small correction, so it
    follows the iterates of a solve of that element alone.
    """
    done = False
    result = s
    for _ in range(_MAX_ITERATIONS):
        g, s_next = newton(s)
        below = g < 0.0
        lo = _where(below, s, lo)
        hi = _where(below, hi, s)
        clamped = _where(s_next < lo, lo, _where(s_next > hi, hi, s_next))
        result = _where(done, result, _where(g == 0.0, s, clamped))
        done = done | (g == 0.0) | (abs(s_next - s) <= _REL_TOL * (scale + s))
        # a plain bool is read directly: np.all on it costs more than a step
        if done if isinstance(done, bool) else done.all():
            return result
        s = _where((lo <= s_next) & (s_next <= hi), s_next, 0.5 * (lo + hi))
    raise NumericalError(
        f"bracketed Newton solve did not converge in {_MAX_ITERATIONS} steps "
        f"(bracket [{lo!r}, {hi!r}])"
    )


def _solve_strain(K):
    """Root of K s (1+s)^3 = 2 for s > 0, solved in the strain variable.

    G(s) = K s - 2/(1+s)^3 is concave and increasing with G(0) = -2, and
    K s (1+s)^3 > 2 at s = 2/K and at s = (2/K)^(1/4), so the smaller of
    the two closes the bracket for every K.  Newton runs from that upper
    end in the cancellation-free form s <- r^3 (2 + 6 s r) / (K + 6 r^4),
    r = 1/(1+s).  For s >= 1 the sign comes from K s (1+s)^3 - 2 and the
    step is scaled by (1+s)^4, with K (1+s)^4 formed as (K^(1/4) (1+s))^4,
    so nothing overflows or goes subnormal anywhere in the accepted K range.

    K is a float or an array of them; an array is solved elementwise with
    the same arithmetic.  Both branches are evaluated and one is selected,
    so the branch that is not taken may overflow: numpy's warnings are muted.
    """
    if isinstance(K, float):
        k4, muted = math.sqrt(math.sqrt(K)), contextlib.nullcontext()
    else:
        import numpy as np

        k4, muted = np.sqrt(np.sqrt(K)), np.errstate(all="ignore")

    def newton(s):
        r = 1.0 / (1.0 + s)
        r3 = r * r * r
        q = k4 * (1.0 + s)
        q4 = q * q * q * q  # K (1+s)^4
        small = s < 1.0
        g = _where(small, K * s - 2.0 * r3, s * q4 / (1.0 + s) - 2.0)
        step = _where(
            small,
            r3 * (2.0 + 6.0 * s * r) / (K + 6.0 * r3 * r),
            (2.0 + 8.0 * s) / (q4 + 6.0),
        )
        return g, step

    with muted:
        stiff, soft = 2.0 / K, _FOURTH_ROOT_OF_2 / k4
        hi = _where(soft < stiff, soft, stiff)
        s = _bracketed_newton(newton, 0.0, hi, hi)
        # for s < 1, a last correction from the expanded K s (1 + 3s + 3s^2 +
        # s^3) - 2, which rounds less than the r form: the strain ends within
        # ~2 ulps
        p = K * s * (1.0 + s * (3.0 + s * (3.0 + s))) - 2.0
        polished = s - p / (K * (1.0 + s * (6.0 + s * (9.0 + 4.0 * s))))
        return _where(s < 1.0, polished, s)


def solve_equilibrium(K: float) -> StrainSolution:
    """Solve the strain equilibrium for stiffness K.

    Finds the unique relative size ell > 1 where the zero-point force
    balances the spring, by a bracketed Newton solve of the force balance
    in the strain variable, to float resolution for every finite K > 0.
    All derived energies and the stiffened force constant are populated on
    the result.
    """
    K = check_positive(K, "stiffness K")
    return StrainSolution(K=K, **_solution(K))


def equilibria(K_grid) -> dict:
    """:func:`solve_equilibrium` over an increasing stiffness grid as float64
    columns, ``K`` and the other StrainSolution fields: the same arithmetic
    run elementwise, so each element equals its own solve bit for bit."""
    K = check_grid(K_grid, "stiffness grid", positive=True)
    return {"K": K, **_solution(K)}


def _solution(K):
    """The StrainSolution fields but K, for a float or elementwise for an array."""
    s = _solve_strain(K)
    ell = 1.0 + s
    r = 1.0 / ell
    # powers as products, which numpy and libm round alike
    balance = 2.0 * (r * r * r)
    energy = 0.5 * s * (K * s)
    return dict(
        ell=ell,
        strain=s,
        residual=abs(K * s - balance) / balance,
        # 1/ell^2 - 1 written as -s(s+2)/ell^2 to avoid cancellation at tiny s
        binding_exact=energy - s * (s + 2.0) * r * r,
        binding_first_order=-s * (r * r * r),
        strain_energy=energy,
        # 6/ell^4 as 6 (1/ell)^4: ell^4 overflows for the softest springs
        effective_stiffness=K + 6.0 * ((r * r) * (r * r)),
    )


def perturbed_energy(sol: StrainSolution, eta: float) -> float:
    """Total energy with the wall displaced by eta from equilibrium.

    Valid only inside the strain window |eta| < strain, where the
    expansion E = E_min + (K'/2) eta^2 + O(eta^3) holds; the linear term
    cancels exactly at equilibrium, which is what lets the particle and
    the spring trade energy at equal and opposite linear rates.
    """
    eta = check_finite(eta, "displacement eta")
    if not abs(eta) < sol.strain:
        raise DomainError(
            f"|eta| = {abs(eta)!r} must stay below the strain {sol.strain!r}"
        )
    y = sol.strain + eta
    size = sol.ell + eta  # > 0: ell = fl(1 + strain) >= strain > -eta
    return 1.0 / (size * size) + 0.5 * sol.K * y * y


def minimize_oracle(K: float) -> float:
    """Locate the energy minimum by direct search; returns the displacement y*.

    Independent check on :func:`solve_equilibrium`: a golden-section search
    of total_energy over [0, y_max], with no float pre-scan.  E is strictly
    convex on y > -1 (E'' = 6/(1+y)^4 + K > 0) and falls at 0 (E'(0) = -2);
    K y* (1 + y*)^3 = 2 gives y* < 2/K and y* < (2/K)^(1/4), so y_max, twice
    the smaller bound, brackets the one minimum for every K.  Each step keeps
    the minimum inside the bracket [a, b] (Brent 1973, ch. 5); the search
    stops once b - a <= _GOLDEN_TOL * b, or earlier where the abscissae
    reach float resolution.

    Energies are compared exactly, because in double precision the well is
    numerically flat near the minimum: with y = p/q and K = m/k, E(y) =
    (2k q^4 + m p^2 (p+q)^2) / (2k q^2 (p+q)^2), carried as an unreduced
    (numerator, denominator) pair of ints with a positive denominator, and
    fc < fd is decided as n_c d_d < n_d d_c.
    """
    K = check_positive(K, "stiffness K")
    a, b = 0.0, 2.0 * min(2.0 / K, _FOURTH_ROOT_OF_2 / math.sqrt(math.sqrt(K)))
    m, k = K.as_integer_ratio()
    two_k = 2 * k

    def f(y: float) -> tuple[int, int]:
        p, q = y.as_integer_ratio()
        q2 = q * q
        s2 = (p + q) * (p + q)
        return two_k * q2 * q2 + m * p * p * s2, two_k * q2 * s2

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _GOLDEN_TOL * b and a < c < d < b:
        if fc[0] * fd[1] < fd[0] * fc[1]:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2
