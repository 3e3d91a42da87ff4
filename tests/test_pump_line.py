"""The memoized pump-only Liouvillian L(omega_p) = A + omega_p B of one line
and detuning, bit for bit the assembled operator; its steady state by
elimination onto the ground populations, against ``steady_state`` of that
operator, a 40-digit solve and the exact weak-pump limit; the null-space
dimension k^2 from the ground rate matrix's nullity k, against the
per-block count; and ``steady_state``'s block route, bit for bit the
per-block one, with the same null-space dimension where it raises."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from mirrorless import (DegenerateSteadyStateError, build_collapse,
                        build_liouvillian, build_scheme, pump_hamiltonian,
                        pump_only_steady_state, steady_state)
from mirrorless.dynamics import _pump_line

from oracles import (block_null_vectors_oracle, steady_state_blocks_oracle,
                     steady_state_mp_oracle, weak_pump_limit)
from test_blocks import BRIGHT, LINES

DARK = [line for line in LINES if line not in BRIGHT]
# 1.1e-3: just above propagation._OMEGA_FLOOR, where the spectral gap of L
# is smallest among the pump strengths the program solves
OMEGAS = [1.1e-3, 0.3, 2.0, 6.0]
DELTAS = [0.0, 0.741, 1.75]


def _assembled(scheme, omega_p, delta_p):
    return build_liouvillian(pump_hamiltonian(scheme, omega_p, delta_p),
                             build_collapse(scheme))


def _dimension(solve):
    with pytest.raises(DegenerateSteadyStateError) as info:
        solve()
    return info.value.dimension


def _rate_dimension(scheme, omega_p, delta_p):
    """k^2 for the nullity k of the ground rate matrix: 1 where the
    pump-only state is unique, else the dimension that it raises."""
    try:
        pump_only_steady_state(scheme, omega_p, delta_p)
    except DegenerateSteadyStateError as exc:
        return exc.dimension
    return 1


@pytest.mark.parametrize("delta_p", DELTAS)
@pytest.mark.parametrize("omega_p", OMEGAS)
@pytest.mark.parametrize("line", BRIGHT)
def test_memo_equals_assembly(line, omega_p, delta_p):
    scheme = build_scheme(*line)
    L = _assembled(scheme, omega_p, delta_p)
    rho, L_memo = pump_only_steady_state(scheme, omega_p, delta_p)
    assert L_memo.dim == L.dim
    assert np.array_equal(L_memo.matrix, L.matrix)
    # the SVD route loses digits as its spectral gap, about
    # omega_p^2 / (1 + 4 delta_p^2), closes; the elimination does not
    bound = 1e-14 * (1 + 4 * delta_p ** 2) / min(omega_p, 1.0) ** 2
    assert np.max(np.abs(rho - steady_state(L))) <= bound


@pytest.mark.parametrize("line", BRIGHT)
def test_state_matches_extended_precision(line):
    # from a weak pump far off resonance, where the SVD rule saw a null
    # space of dimension 3 to 36, to a strong one: within 1e-15 of the q = 0
    # block of the same L solved in 40 digits
    pytest.importorskip("mpmath")
    scheme = build_scheme(*line)
    for omega_p in (1e-5, 1.1e-3, 0.01, 2.0):
        for delta_p in (0.0, 3.0, 10.0):
            rho, L = pump_only_steady_state(scheme, omega_p, delta_p)
            reference = steady_state_mp_oracle(L.matrix, scheme)
            assert np.max(np.abs(rho - reference)) <= 1e-15


@pytest.mark.parametrize("line, weights", [((1, 2), [4, 9, 4]),
                                           ((2, 3), [36, 225, 400, 225, 36])])
def test_weak_pump_limit_table(line, weights):
    # the weak-pump limits of the two lines of the paper, in exact fractions
    assert weak_pump_limit(build_scheme(*line)) \
        == [Fraction(w, sum(weights)) for w in weights]


# the largest |rho_P - limit| / S measured over the bright lines, these
# pumps and detunings is 0.2500, on the 0 -> 1 line (the two-level atom);
# the next is 0.0835, on 1/2 -> 3/2
LIMIT_SLOPE = 0.26


@pytest.mark.parametrize("delta_p", [0.0, 10.0])
@pytest.mark.parametrize("line", BRIGHT)
def test_weak_pump_approaches_exact_limit(line, delta_p):
    # the eliminated state's ground populations tend to the exact
    # omega_p -> 0+ limit, linearly in S = omega_p^2 / (1/4 + delta_p^2)
    scheme = build_scheme(*line)
    limit = np.array(weak_pump_limit(scheme), dtype=float)
    for omega_p in (1e-5, 1.1e-3, 0.01):
        rho, _ = pump_only_steady_state(scheme, omega_p, delta_p)
        S = omega_p ** 2 / (0.25 + delta_p ** 2)
        ground = np.real(np.diag(rho))[scheme.ground_indices]
        assert np.max(np.abs(ground - limit)) <= LIMIT_SLOPE * S


@pytest.mark.parametrize("omega_p, delta_p",
                         [(1e-5, delta_p) for delta_p in (0.0, 0.741, 1.75,
                                                          10.0)]
                         + [(1.1e-3, 10.0)])
@pytest.mark.parametrize("line", DARK)
def test_weakly_pumped_dark_line_dimension(line, omega_p, delta_p):
    # the two dark ground states m_g = +-F_g span a null space of dimension
    # 4 however weak the pump, where steady_state's rule on the singular
    # values of L's blocks counts 5 to 49
    assert _rate_dimension(build_scheme(*line), omega_p, delta_p) == 4


@pytest.mark.parametrize("delta_p", DELTAS)
@pytest.mark.parametrize("omega_p", OMEGAS)
@pytest.mark.parametrize("line", BRIGHT)
def test_blocked_state_equals_per_block_route(line, omega_p, delta_p):
    # L's memoized block SVDs pick the same null vector as the oracle's,
    # which finds the blocks with scipy
    L = _assembled(build_scheme(*line), omega_p, delta_p)
    assert np.array_equal(steady_state(L),
                          steady_state_blocks_oracle(L.matrix))


@pytest.mark.parametrize("delta_p", DELTAS)
@pytest.mark.parametrize("omega_p", OMEGAS)
@pytest.mark.parametrize("line", DARK)
def test_dark_line_dimension(line, omega_p, delta_p):
    scheme = build_scheme(*line)
    L = _assembled(scheme, omega_p, delta_p)
    line = _pump_line(scheme, delta_p)
    assert np.array_equal(line.A + omega_p * line.B, L.matrix)
    memo = _dimension(lambda: pump_only_steady_state(scheme, omega_p,
                                                     delta_p))
    assert memo == _dimension(lambda: steady_state(L)) > 1


# pumped dark lines, and undriven lines, where every ground distribution
# is stationary
DEGENERATE = [(line, omega_p) for line in DARK for omega_p in (0.3, 2.0)] \
    + [(line, 0.0) for line in LINES]


@pytest.mark.parametrize("line, omega_p", DEGENERATE)
def test_projection_unchanged(line, omega_p):
    # the null space counted by the per-block oracle: one vector only on
    # the undriven 0 -> 1 line, whose ground state is the steady state;
    # k^2 from the ground rate matrix is that count, 4 on the pumped dark
    # lines and n_g^2 on the undriven ones
    scheme = build_scheme(*line)
    L = _assembled(scheme, omega_p, 0.741)
    nullity = len(block_null_vectors_oracle(L.matrix))
    assert _rate_dimension(scheme, omega_p, 0.741) == nullity
    if nullity == 1:
        assert np.array_equal(steady_state(L),
                              steady_state_blocks_oracle(L.matrix))
    else:
        assert _dimension(lambda: steady_state(L)) == nullity
    assert (nullity == 1) == (line == (0, 1))


@pytest.mark.parametrize("delta_p", DELTAS)
@pytest.mark.parametrize("line", LINES)
def test_population_block_indices(line, delta_p):
    # P: the ground populations; Q: every other index of a weak component
    # of the assembled pattern that holds one of them
    scheme = build_scheme(*line)
    pumped = _pump_line(scheme, delta_p)
    _, labels = connected_components(
        _assembled(scheme, 1.0, delta_p).matrix != 0, connection="weak")
    P = np.array(scheme.ground_indices) * (scheme.dim + 1)
    held = np.isin(labels, labels[P])
    held[P] = False
    assert np.array_equal(pumped.P, P)
    assert np.array_equal(pumped.Q, np.flatnonzero(held))


def test_memo_read_only_and_bounded(scheme8):
    line = _pump_line(scheme8, 0.5)
    arrays = [line.A, line.B, line.P, line.Q, line.A_block, line.B_block,
              *line.blocks]
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        line.A[0, 0] = 1.0
    assert sorted(len(b) for b in line.blocks) \
        == [1, 1, 2, 2, 2, 2, 8, 8, 12, 12, 14]
    # a scan over many detunings keeps at most maxsize operators
    for delta_p in np.linspace(0.0, 3.0, 40):
        pump_only_steady_state(scheme8, 1.0, delta_p)
    info = _pump_line.cache_info()
    assert info.currsize <= info.maxsize <= 16


def test_memo_keyed_on_line_and_detuning(scheme8, scheme12):
    assert _pump_line(scheme8, 0.5) is _pump_line(scheme8, 0.5)
    assert _pump_line(scheme8, 0.5) is not _pump_line(scheme8, 0.75)
    assert _pump_line(scheme12, 0.5).dim == 12
