"""Level scheme construction, Hamiltonian structure, collapse operators."""

import numpy as np
import pytest

from mirrorless import (CollapseChannels, FieldConfig, branching_ratios,
                        build_collapse, build_scheme, pump_hamiltonian)
from mirrorless.levels import probe_raising, pump_raising

from oracles import (branching_oracle, build_hamiltonian,
                     dipole_weight_oracle, mirror_permutation,
                     two_level_collapse, two_level_hamiltonian)
from test_blocks import BRIGHT, LINES


def test_scheme_8level_paper_numbering(scheme8):
    assert scheme8.dim == 8
    assert [i + 1 for i in scheme8.ground_indices] == [2, 4, 6]
    assert [i + 1 for i in scheme8.excited_indices] == [1, 3, 5, 7, 8]
    # 1-based index 1 is (excited, m=-2), 8 is (excited, m=+2)
    assert scheme8.sublevels[0] == ("excited", -2.0)
    assert scheme8.sublevels[7] == ("excited", 2.0)


def test_scheme_sizes():
    assert build_scheme(2, 3).dim == 12
    s = build_scheme(0, 1)
    assert s.dim == 4
    assert len(s.ground_indices) == 1


def test_scheme_rejects_invalid():
    with pytest.raises(ValueError):
        build_scheme(1, 3)
    with pytest.raises(ValueError):
        build_scheme(0, 0)
    with pytest.raises(ValueError):
        build_scheme(1, 1.5)  # integer and half-integer
    with pytest.raises(ValueError):
        build_scheme(1.2, 1.2)  # not half-integer


def test_hamiltonian_zero_pattern_matches_printed(scheme8):
    f = FieldConfig(omega_p=1.3, omega_pr=0.7, delta_p=0.3, delta_pr=0.9)
    H = build_hamiltonian(scheme8, f)
    # couplings per printed matrix (1-based rows): 2 -> {1,3,5},
    # 4 -> {3,5,7}, 6 -> {5,7,8}
    coupled = {2: {1, 3, 5}, 4: {3, 5, 7}, 6: {5, 7, 8}}
    for g1, partners in coupled.items():
        for j in range(1, 9):
            present = abs(H[g1 - 1, j - 1]) > 0
            assert present == (j in partners), (g1, j)
    # no excited-excited or ground-ground couplings anywhere
    for i in range(8):
        for j in range(8):
            if i == j or abs(H[i, j]) == 0:
                continue
            mans = {scheme8.sublevels[i][0], scheme8.sublevels[j][0]}
            assert mans == {"ground", "excited"}


def test_hamiltonian_diagonal_frame(scheme8):
    f = FieldConfig(omega_p=1.0, omega_pr=0.5, delta_p=0.3, delta_pr=0.9)
    H = build_hamiltonian(scheme8, f)
    diag = np.real(np.diag(2 * H))
    # (1-based) 1, 8: 2 delta_pr; 3, 5, 7: 2 (delta_p + delta_pr); ground: 0
    assert diag[0] == pytest.approx(2 * 0.9)
    assert diag[7] == pytest.approx(2 * 0.9)
    for i in (2, 4, 6):
        assert diag[i] == pytest.approx(2 * (0.3 + 0.9))
    for i in (1, 3, 5):
        assert diag[i] == 0.0


def test_hamiltonian_phases(scheme8):
    f = FieldConfig(omega_p=2.0, omega_pr=1.0, delta_p=0.0, delta_pr=0.0)
    H = build_hamiltonian(scheme8, f)
    # pump couplings real positive; probe raising entries -i |w|/sqrt(2)
    for g, e in [(1, 2), (3, 4), (5, 6)]:  # 0-based (ground, excited) pi pairs
        assert H[g, e].imag == 0.0 and H[g, e].real > 0
    for e, g in [(0, 1), (2, 3), (4, 5), (6, 3), (4, 1), (7, 5)]:
        z = H[e, g]
        assert z.real == 0.0 and z.imag < 0.0, (e, g, z)


def test_hamiltonian_exact_hermiticity(scheme8):
    f = FieldConfig(omega_p=1.7, omega_pr=0.9, delta_p=-0.4, delta_pr=1.1)
    H = build_hamiltonian(scheme8, f)
    assert np.max(np.abs(H - H.conj().T)) == 0.0


def test_pump_only_block_structure(scheme8):
    f = FieldConfig(omega_p=4.0, omega_pr=0.0, delta_p=0.0, delta_pr=0.0)
    H = build_hamiltonian(scheme8, f)
    # with the probe off, states 1 and 8 carry only diagonal entries
    for k in (0, 7):
        row = np.abs(H[k]).copy()
        row[k] = 0.0
        assert np.max(row) == 0.0
        col = np.abs(H[:, k]).copy()
        col[k] = 0.0
        assert np.max(col) == 0.0


def test_pump_pair_eigenvalues_vs_2x2(scheme8):
    # resonant pump-only pairs: eigenvalues +- (omega_p/2) w_m per pi pair,
    # checked against an independent 2x2 diagonalization
    omega = 4.0
    H = pump_hamiltonian(scheme8, omega, 0.0)
    vals = np.sort(np.linalg.eigvalsh(H))
    expected = [0.0, 0.0]  # decoupled |m_e| = 2 states
    table = branching_ratios(1, 2)
    for m in (-1.0, 0.0, 1.0):
        w = np.sqrt(float(table.entries[2 * m, 2 * m]))
        pair = np.linalg.eigvalsh(np.array([[0.0, omega * w / 2],
                                            [omega * w / 2, 0.0]]))
        expected.extend(pair)
    assert np.allclose(vals, np.sort(expected), atol=1e-14)


def test_mirror_symmetry_permutation(scheme8):
    f = FieldConfig(omega_p=1.3, omega_pr=0.7, delta_p=0.5, delta_pr=0.2)
    H = build_hamiltonian(scheme8, f)
    perm = mirror_permutation(scheme8)
    assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) < 1e-14


def _decay_rates(ch):
    """Total decay rate of each sublevel, diag sum_k s_k^+ s_k."""
    return np.real(np.diag(sum(s.conj().T @ s for s in ch.sigmas)))


def test_collapse_entries_and_total_rate(scheme8):
    ch = build_collapse(scheme8)
    # entry on (g=2, e=1): b12 = 1 -> sqrt(1) = 1 (paper indices, 1-based)
    total = ch.sigmas[0] + ch.sigmas[1] + ch.sigmas[2]
    assert total[1, 0] == pytest.approx(1.0)
    assert _decay_rates(ch) == pytest.approx([1, 0, 1, 0, 1, 0, 1, 1],
                                             abs=1e-14)


def test_collapse_memoized_per_line_and_read_only(scheme8):
    # equal schemes share one set of operators, which nobody may modify
    ch = build_collapse(build_scheme(1, 2))
    assert build_collapse(scheme8) is ch
    assert build_collapse(build_scheme(2, 3)) is not ch
    for s in ch.sigmas:
        with pytest.raises(ValueError):
            s[0, 0] = 1.0


def test_collapse_channel_separation(scheme8):
    ch = build_collapse(scheme8)
    for k, dm in ((0, 0.0), (1, -1.0), (2, 1.0)):
        s = ch.sigmas[k]
        for g in range(8):
            for e in range(8):
                if abs(s[g, e]) > 0:
                    assert scheme8.sublevels[e][0] == "excited"
                    assert scheme8.sublevels[g][0] == "ground"
                    assert scheme8.m_of(e) - scheme8.m_of(g) == dm


def test_collapse_f2_f3_rows_vs_oracle(scheme12):
    ch = build_collapse(scheme12)
    oracle = branching_oracle(2, 3)
    total = sum(s.conj().T @ s for s in ch.sigmas)
    for e in scheme12.excited_indices:
        assert total[e, e].real == pytest.approx(1.0, abs=1e-12)
    for (m_e, m_g), b in oracle.items():
        e = scheme12.index("excited", float(m_e))
        g = scheme12.index("ground", float(m_g))
        found = sum(abs(s[g, e]) ** 2 for s in ch.sigmas)
        assert found == pytest.approx(float(b), abs=1e-14)


def test_coupling_weight_squares_are_branching(scheme8):
    # with the Clebsch-Gordan normalization, weight^2 = branching ratio
    vp, vx = pump_raising(scheme8), np.sqrt(2.0) * probe_raising(scheme8)
    table = branching_ratios(1, 2)
    for (m_g, m_e), v in (((0, 0), vp), ((-1, -2), vx), ((-1, 0), vx)):
        e = scheme8.index("excited", m_e)
        g = scheme8.index("ground", m_g)
        assert abs(v[e, g]) ** 2 == pytest.approx(
            float(table.entries[2 * m_e, 2 * m_g]))
    assert float(table.entries[0, 0]) == pytest.approx(2 / 3)
    assert float(table.entries[-4, -2]) == pytest.approx(1.0)
    assert float(table.entries[0, -2]) == pytest.approx(1 / 6)


@pytest.mark.parametrize("line", LINES, ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_one_weight_table_feeds_couplings_and_decay(line):
    # the pump, the probe and the decay channels read one table of signed
    # weights: the pi channel is the pump coupling exactly, the sigma
    # channels are the probe coupling up to its 1/sqrt(2) rounding (the
    # spacing of a negative entry is negative)
    scheme = build_scheme(*line)
    sigmas = build_collapse(scheme).sigmas
    assert np.array_equal(sigmas[0], pump_raising(scheme).T)
    sigma_pm = (sigmas[1] + sigmas[2]).real
    probe = (np.sqrt(2.0) * 1j * probe_raising(scheme)).real.T
    assert np.all(np.abs(sigma_pm - probe) <= abs(np.spacing(sigma_pm)))


def test_raising_operators_respect_selection_rules(scheme12):
    vp = pump_raising(scheme12)
    vx = probe_raising(scheme12)
    for i in range(scheme12.dim):
        for j in range(scheme12.dim):
            if abs(vp[i, j]) > 0:
                assert scheme12.m_of(i) == scheme12.m_of(j)
            if abs(vx[i, j]) > 0:
                assert abs(scheme12.m_of(i) - scheme12.m_of(j)) == 1.0


def test_field_config():
    f = FieldConfig(omega_p=1.0, omega_pr=0.1, delta_p=0.5, delta_pr=0.8)
    assert f.delta == pytest.approx(0.3)
    with pytest.raises(ValueError):
        FieldConfig(omega_p=-1.0)


def test_half_integer_line():
    # half-integer manifolds (e.g. j = 1/2 -> 3/2) build the same structures
    scheme = build_scheme(0.5, 1.5)
    assert scheme.dim == 6
    assert [scheme.m_of(g) for g in scheme.ground_indices] == [-0.5, 0.5]
    ch = build_collapse(scheme)
    assert _decay_rates(ch) == pytest.approx([1, 0, 1, 0, 1, 1], abs=1e-14)
    f = FieldConfig(omega_p=2.0, omega_pr=0.01, delta_p=0.3, delta_pr=0.8)
    H = build_hamiltonian(scheme, f)
    assert np.max(np.abs(H - H.conj().T)) == 0.0
    perm = mirror_permutation(scheme)
    assert np.max(np.abs(H[np.ix_(perm, perm)] - H)) < 1e-14


def test_two_level_reference_atom():
    H = two_level_hamiltonian(4.0, 3.0)
    assert np.allclose(np.linalg.eigvalsh(2 * H), [-2.0, 8.0])
    ch = two_level_collapse()
    assert _decay_rates(ch) == pytest.approx([1, 0])


def _signed_gauge(scheme):
    """Pump, probe and decay channels in the natural spherical-basis gauge:
    the magnitudes of the program's weights times the signs of the oracle's
    dipole weights, and a uniform +i/sqrt(2) on the probe."""
    sign = np.zeros((scheme.dim, scheme.dim))
    for e in scheme.excited_indices:
        for g in scheme.ground_indices:
            q = scheme.m_of(g) - scheme.m_of(e)
            if abs(q) <= 1:
                sign[e, g] = np.sign(dipole_weight_oracle(
                    scheme.F_g, scheme.m_of(g), scheme.F_e, scheme.m_of(e),
                    round(q)))
    sigmas = tuple(abs(s) * sign.T for s in build_collapse(scheme).sigmas)
    return (sign * abs(pump_raising(scheme)),
            1j * sign * abs(probe_raising(scheme)),
            CollapseChannels(sigmas=sigmas))


@pytest.mark.parametrize("line", BRIGHT, ids=lambda l: f"{l[0]:g}->{l[1]:g}")
def test_gauge_invariance_of_observables(line):
    # printed gauge (real pump, uniform -i probe) and the natural signed
    # spherical-basis gauge must give identical observables
    from mirrorless.dynamics import build_liouvillian, steady_state
    from mirrorless.spectra import resolvent_spectrum, DipoleOperator

    scheme = build_scheme(*line)
    grid = np.linspace(-5, 5, 21)
    omega_p, detuned = 2.0, pump_hamiltonian(scheme, 0.0, 0.7)
    results = []
    for vp, vx, decay in ((pump_raising(scheme), probe_raising(scheme),
                           build_collapse(scheme)), _signed_gauge(scheme)):
        H = detuned + 0.5 * omega_p * (vp + vp.conj().T)
        L = build_liouvillian(H, decay)
        rho = steady_state(L)
        d_op = DipoleOperator(d_plus=vx, polarization="perpendicular",
                              n_ground=len(scheme.ground_indices))
        spec = resolvent_spectrum(L, rho, d_op, grid)
        results.append((np.real(np.diag(rho)), spec.absorption))
    assert np.allclose(results[0][0], results[1][0], atol=1e-12)
    assert np.allclose(results[0][1], results[1][1], atol=1e-10)
