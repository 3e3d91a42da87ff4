"""Branching ratios of a dipole line from the rank-1 closed form, against
the v-sum Racah oracle, and the oracle's own 3-j identities."""

from fractions import Fraction
from math import sqrt

import pytest

from mirrorless.angular import BranchingTable, branching_ratios

from oracles import branching_oracle, dipole_weight_oracle, threej_oracle
from test_blocks import LINES


def test_112_000_frozen_oracle_value():
    # value frozen from the exact-rational v-sum oracle: 2/sqrt(30)
    assert threej_oracle(1, 1, 2, 0, 0, 0) == pytest.approx(0.3651483716701107,
                                                            abs=1e-15)


def test_j0j_closed_form():
    # the oracle against 3j(j, 0, j; m, 0, -m) = (-1)^(j+m) / sqrt(2j+1)
    for j in (0.5, 1, 1.5, 2, 3):
        tj = int(2 * j)
        for tm in range(-tj, tj + 1, 2):
            m = tm / 2
            expected = (-1) ** round(j + m) / sqrt(2 * j + 1)
            assert threej_oracle(j, 0, j, m, 0, -m) == pytest.approx(
                expected, abs=1e-15)


def test_character_mismatch_rejected():
    # F_g and F_e must be integer or half-integer, and both of one kind
    for line in [(1, 1.5), (0.5, 1), (1.25, 2.25)]:
        with pytest.raises(ValueError):
            branching_ratios(*line)


def test_odd_permutation_zero():
    # antisymmetry under column exchange with odd j1+j2+j3 forces zero
    assert threej_oracle(1, 1, 1, 0, 0, 0) == 0.0


def test_selection_rules_return_zero():
    assert threej_oracle(1, 1, 2, 1, 1, -1) == 0.0   # m-sum nonzero
    assert threej_oracle(1, 1, 3, 0, 0, 0) == 0.0    # triangle violated
    assert threej_oracle(1, 1, 0.5, 0, 0, 0.5) == 0.0  # half-integer total, m-sum off


def _random_valid_args(rng, n):
    out = []
    while len(out) < n:
        tj1, tj2 = rng.integers(0, 9), rng.integers(0, 9)
        choices = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        tj3 = rng.choice(list(choices))
        tm1 = rng.choice(list(range(-tj1, tj1 + 1, 2))) if tj1 else 0
        tm2 = rng.choice(list(range(-tj2, tj2 + 1, 2))) if tj2 else 0
        tm3 = -tm1 - tm2
        if abs(tm3) > tj3:
            continue
        out.append(tuple(x / 2 for x in (tj1, tj2, tj3, tm1, tm2, tm3)))
    return out


def test_column_permutation_symmetries(rng):
    for (j1, j2, j3, m1, m2, m3) in _random_valid_args(rng, 120):
        base = threej_oracle(j1, j2, j3, m1, m2, m3)
        even = threej_oracle(j2, j3, j1, m2, m3, m1)
        sign = (-1) ** round(j1 + j2 + j3)
        odd = threej_oracle(j2, j1, j3, m2, m1, m3)
        flip = threej_oracle(j1, j2, j3, -m1, -m2, -m3)
        assert even == pytest.approx(base, abs=1e-12)
        assert odd == pytest.approx(sign * base, abs=1e-12)
        assert flip == pytest.approx(sign * base, abs=1e-12)


def test_orthogonality(rng):
    # sum_{m1,m2} (2 j3 + 1) 3j(...)^2 = 1 for any valid (j3, m3)
    for (j1, j2, j3) in [(1, 1, 2), (2, 1, 3), (1.5, 1, 2.5), (2, 2, 2),
                         (3, 2, 1)]:
        tj3 = int(2 * j3)
        for tm3 in range(-tj3, tj3 + 1, 2):
            m3 = tm3 / 2
            total = 0.0
            tj1, tj2 = int(2 * j1), int(2 * j2)
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = -tm1 - tm3
                if abs(tm2) > tj2:
                    continue
                total += (2 * j3 + 1) * threej_oracle(j1, j2, j3, tm1 / 2, tm2 / 2, m3) ** 2
            assert total == pytest.approx(1.0, abs=1e-10)


def test_closed_form_vs_independent_oracle(rng):
    # lines beyond the 12-sublevel ones, up to F = 8, against the oracle
    for _ in range(12):
        tfg = int(rng.integers(0, 17))
        tfe = tfg + int(rng.choice([-2, 0, 2]))
        if tfe < 0 or tfg + tfe < 2:
            continue
        line = (tfg / 2, tfe / 2)
        assert branching_ratios(*line).entries == {
            (int(2 * m_e), int(2 * m_g)): b
            for (m_e, m_g), b in branching_oracle(*line).items()}


def test_dipole_weight_pi_frozen():
    # pi weight of the m = 0 pair frozen from the oracle; its square times
    # (2F_e + 1)/(2F_g + 1) is the branching ratio
    w = dipole_weight_oracle(1, 0, 2, 0, 0)
    assert w == pytest.approx(-0.6324555320336759, abs=1e-15)
    assert w ** 2 * 5 / 3 == pytest.approx(float(branching_ratios(1, 2)
                                                 .entries[0, 0]), abs=1e-15)


def test_dipole_weight_forbidden():
    # Delta m = 2 has no weight in either route
    assert dipole_weight_oracle(1, -1, 2, +1, 0) == 0.0
    assert (2, -2) not in branching_ratios(1, 2).entries


def test_pi_weight_ratios_match_branching():
    # squared pi weights must be in the branching-ratio proportion
    # b32 : b54 : b76 = 1/2 : 2/3 : 1/2
    b = branching_ratios(1, 2).entries
    w = [dipole_weight_oracle(1, m, 2, m, 0) ** 2 for m in (-1, 0, 1)]
    assert w[0] / w[1] == pytest.approx(b[-2, -2] / b[0, 0], rel=1e-12)
    assert w[2] / w[1] == pytest.approx(b[2, 2] / b[0, 0], rel=1e-12)


PAPER_TABLE_12 = {
    # (m_e, m_g) -> paper value, in the 8-level labeling b_ij
    (-1, -1): Fraction(1, 2),   # b32
    (+1, +1): Fraction(1, 2),   # b76
    (0, 0): Fraction(2, 3),     # b54
    (-2, -1): Fraction(1),      # b12
    (+2, +1): Fraction(1),      # b86
    (-1, 0): Fraction(1, 2),    # b34
    (+1, 0): Fraction(1, 2),    # b74
    (0, -1): Fraction(1, 6),    # b52
    (0, +1): Fraction(1, 6),    # b56
}


def test_branching_f1_f2_exact_rationals():
    table = branching_ratios(1, 2)
    assert len(table.entries) == len(PAPER_TABLE_12)
    for (m_e, m_g), expected in PAPER_TABLE_12.items():
        assert table.entries[2 * m_e, 2 * m_g] == expected


def test_branching_rows_normalize():
    for (fg, fe) in LINES:
        table = branching_ratios(fg, fe)
        tfe = int(2 * fe)
        for tme in range(-tfe, tfe + 1, 2):
            s = sum(b for (te, _), b in table.entries.items() if te == tme)
            if s != 0:  # dark rows allowed for F_e <= F_g edges
                assert s == 1
        assert all(0 <= b <= 1 for b in table.entries.values())


def test_branching_f2_f3_vs_oracle():
    # every line with at most 12 sublevels, exactly, against the oracle
    for line in LINES:
        table = branching_ratios(*line)
        oracle = branching_oracle(*line)
        assert len(table.entries) == len(oracle), line
        for (m_e, m_g), b in oracle.items():
            assert table.entries[2 * m_e, 2 * m_g] == b, (line, m_e, m_g)


def test_branching_rejects_invalid_lines():
    with pytest.raises(ValueError):
        branching_ratios(1, 3)   # triangle rule
    with pytest.raises(ValueError):
        branching_ratios(0, 0)   # F_g + F_e < 1


def test_branching_table_is_exact_fractions():
    table = branching_ratios(1, 2)
    assert all(isinstance(b, Fraction) for b in table.entries.values())
    assert isinstance(table, BranchingTable)

