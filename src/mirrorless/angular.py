"""Angular-momentum algebra for dipole transitions between Zeeman manifolds.

Wigner 3-j symbols are evaluated from the Racah single-sum closed form with
exact integer factorial arithmetic; floats appear only on output.  Half-integer
angular momenta are carried internally as doubled integers (2j), which removes
floating-point equality hazards when checking selection rules.

The dipole weight returned by :func:`dipole_weight` is the dimensionless ratio
<F_g m_g|er|F_e m_e> / <F_g||er||F_e>, i.e. the sign-carrying geometric factor
multiplying the reduced matrix element.  The branching ratios for spontaneous
decay are b = w**2 (2F_e + 1)/(2F_g + 1); the 3-j sum rule normalizes them, so
every excited row adds up to 1 with no further division.  One exact evaluation
per transition gives both b and the sign of w, from which the level layer
builds its field couplings and decay channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt
from typing import Dict, Tuple


def _twice(x, name: str = "angular momentum") -> int:
    """Return 2*x as an exact integer, rejecting non-half-integer input."""
    t = 2 * Fraction(x)
    if t.denominator != 1:
        raise ValueError(f"{name} must be integer or half-integer, got {x}")
    return int(t)


def _validate_pair(tj: int, tm: int) -> None:
    if tj < 0:
        raise ValueError(f"angular momentum must be nonnegative, got {tj / 2}")
    if (tj - tm) % 2 != 0:
        raise ValueError(
            f"projection m={tm / 2} must have the same integer/half-integer "
            f"character as j={tj / 2}"
        )
    if abs(tm) > tj:
        raise ValueError(f"|m|={abs(tm) / 2} exceeds j={tj / 2}")


def _threej_squared_signed(tj1, tj2, tj3, tm1, tm2, tm3) -> Tuple[int, Fraction]:
    """Exact (sign, value**2) of a 3-j symbol, arguments as doubled integers.

    Returns sign in {-1, 0, +1} and the square as an exact Fraction, so the
    floating 3-j value is sign*sqrt(square) with a single rounding at the end.
    """
    # selection rules: zero without being an argument error
    if tm1 + tm2 + tm3 != 0:
        return 0, Fraction(0)
    if not (abs(tj1 - tj2) <= tj3 <= tj1 + tj2):
        return 0, Fraction(0)
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0, Fraction(0)

    def f(twice_n: int) -> int:
        # factorial of an integer given as a doubled even integer
        if twice_n % 2 != 0:
            raise ValueError("internal parity error in 3-j evaluation")
        n = twice_n // 2
        if n < 0:
            raise ValueError("internal negative factorial in 3-j evaluation")
        return factorial(n)

    # triangle coefficient and projection factorials (all exact)
    pref = Fraction(
        f(tj1 + tj2 - tj3) * f(tj1 - tj2 + tj3) * f(-tj1 + tj2 + tj3),
        f(tj1 + tj2 + tj3 + 2),
    )
    pref *= (f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2) * f(tj2 - tm2)
             * f(tj3 + tm3) * f(tj3 - tm3))

    # Racah sum over k where every factorial argument stays nonnegative
    k_min = max(0, tj2 - tj3 - tm1, tj1 - tj3 + tm2) // 2
    k_max = min(tj1 + tj2 - tj3, tj1 - tm1, tj2 + tm2) // 2
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        tk = 2 * k
        den = (factorial(k)
               * f(tj1 + tj2 - tj3 - tk)
               * f(tj1 - tm1 - tk)
               * f(tj2 + tm2 - tk)
               * f(tj3 - tj2 + tm1 + tk)
               * f(tj3 - tj1 - tm2 + tk))
        total += Fraction((-1) ** k, den)

    if total == 0:
        return 0, Fraction(0)
    phase = (-1) ** ((tj1 - tj2 - tm3) // 2)
    sign = phase * (1 if total > 0 else -1)
    return sign, total * total * pref


def threej(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3-j symbol (j1 j2 j3; m1 m2 m3).

    Evaluated from the Racah closed-form sum with exact rational arithmetic;
    returns 0.0 when a selection rule (m1+m2+m3 != 0, triangle inequality,
    non-integer j1+j2+j3) fails.  Raises ValueError for arguments whose m does
    not match the integer/half-integer character of its j.
    """
    tj = [_twice(j, f"j{k}") for k, j in enumerate((j1, j2, j3), 1)]
    tm = [_twice(m, f"m{k}") for k, m in enumerate((m1, m2, m3), 1)]
    for pair in zip(tj, tm):
        _validate_pair(*pair)
    sign, sq = _threej_squared_signed(*tj, *tm)
    return sign * sqrt(float(sq))


def _dipole_weight_signed(tFg, tmg, tFe, tme, tq) -> Tuple[int, Fraction]:
    """Exact (sign, weight**2) of the geometric dipole factor.

    weight = (-1)**(F_e - 1 + m_g) * sqrt(2F_g + 1) * threej(F_e, 1, F_g; m_e, q, -m_g)
    """
    if tme + tq - tmg != 0:
        return 0, Fraction(0)
    sign3, sq3 = _threej_squared_signed(tFe, 2, tFg, tme, tq, -tmg)
    if sign3 == 0:
        return 0, Fraction(0)
    # F_e - 1 + m_g is an integer: F_e and m_g share half-integer character
    phase = (-1) ** ((tFe - 2 + tmg) // 2)
    return phase * sign3, Fraction(tFg + 1) * sq3


def dipole_weight(F_g, m_g, F_e, m_e, q: int) -> float:
    """Relative dipole matrix element <F_g m_g|er_q|F_e m_e> / <F_g||er||F_e>.

    ``q`` is the spherical index of the field polarization; the weight is zero
    unless m_e + q - m_g = 0 (the 3-j convention used throughout).
    """
    if q not in (-1, 0, 1):
        raise ValueError(f"spherical index q must be -1, 0 or +1, got {q}")
    tFg, tFe = _twice(F_g, "F_g"), _twice(F_e, "F_e")
    tmg, tme = _twice(m_g, "m_g"), _twice(m_e, "m_e")
    _validate_pair(tFg, tmg)
    _validate_pair(tFe, tme)
    sign, sq = _dipole_weight_signed(tFg, tmg, tFe, tme, 2 * q)
    return sign * sqrt(float(sq))


@dataclass(frozen=True)
class BranchingTable:
    """Spontaneous-decay branching ratios of one F_g <- F_e line.

    ``entries`` maps (m_e, m_g) to the exact branching ratio b as a Fraction;
    sublevels are identified by their magnetic quantum numbers (stored doubled
    to stay hashable for half-integer manifolds).  Every excited row sums to 1.
    """

    F_g: float
    F_e: float
    entries: Dict[Tuple[int, int], Fraction]

    def value(self, m_e, m_g) -> Fraction:
        return self.entries.get((_twice(m_e, "m_e"), _twice(m_g, "m_g")), Fraction(0))

    def row_sum(self, m_e) -> Fraction:
        tme = _twice(m_e, "m_e")
        return sum((b for (te, _), b in self.entries.items() if te == tme), Fraction(0))


def _signed_branching(F_g, F_e) -> Dict[Tuple[int, int], Tuple[int, Fraction]]:
    """Sign and exact branching ratio of every allowed transition of a line.

    Keys are the doubled (m_e, m_g).  Each transition is evaluated once:
    b = w**2 (2F_e + 1)/(2F_g + 1), with w = :func:`dipole_weight`, and the
    sign is that of w, so sign*sqrt(b) is the Clebsch-Gordan coefficient
    <F_g m_g; 1 q|F_e m_e>.  The sum rule sum_{q, m_g} (F_e 1 F_g; m_e q
    -m_g)**2 = 1/(2F_e + 1) makes every excited row of b add up to 1.
    """
    tFg, tFe = _twice(F_g, "F_g"), _twice(F_e, "F_e")
    if not (abs(tFg - tFe) <= 2):
        raise ValueError(f"|F_g - F_e| must be <= 1 for a dipole line, got {F_g}->{F_e}")
    if tFg + tFe < 2:
        raise ValueError("F_g + F_e >= 1 required for a dipole-allowed line")

    scale = Fraction(tFe + 1, tFg + 1)
    table: Dict[Tuple[int, int], Tuple[int, Fraction]] = {}
    for tme in range(-tFe, tFe + 1, 2):
        for tq in (-2, 0, 2):
            tmg = tme + tq
            if abs(tmg) > tFg:
                continue
            sign, sq = _dipole_weight_signed(tFg, tmg, tFe, tme, tq)
            if sign != 0:
                table[(tme, tmg)] = sign, sq * scale
    return table


def branching_ratios(F_g, F_e) -> BranchingTable:
    """Exact branching ratios b(e->g) of one line (see :func:`_signed_branching`).

    Each excited row sums to 1 by the sum rule, with no renormalization.
    """
    entries = {k: b for k, (_, b) in _signed_branching(F_g, F_e).items()}
    return BranchingTable(F_g=F_g, F_e=F_e, entries=entries)
