"""Lindblad generator, time evolution, steady states, inversion scan."""

import inspect

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from mirrorless import (CollapseChannels, DegenerateSteadyStateError,
                        FieldConfig, Liouvillian, build_collapse,
                        build_liouvillian, build_scheme, equal_ground_state,
                        evolve, inversion_scan, omega_from_saturation,
                        pump_only_steady_state, steady_state)
from mirrorless.levels import pump_hamiltonian

from conftest import random_density_matrix
from oracles import (build_hamiltonian, density_matrix_defects,
                     master_rhs_oracle, mirror_permutation,
                     saturation_parameter, two_level_collapse,
                     two_level_excited_population, two_level_hamiltonian)


def test_liouvillian_matches_naive_rhs_oracle(scheme8, rng):
    f = FieldConfig(omega_p=1.7, omega_pr=0.4, delta_p=0.6, delta_pr=-0.3)
    H = build_hamiltonian(scheme8, f)
    ch = build_collapse(scheme8)
    L = build_liouvillian(H, ch)
    for _ in range(5):
        rho = random_density_matrix(rng, 8)
        direct = master_rhs_oracle(np.asarray(H), ch.sigmas, rho)
        assert np.max(np.abs(L.apply(rho) - direct)) < 1e-12


def test_trace_preservation_row(scheme8):
    H = pump_hamiltonian(scheme8, 2.0, 0.5)
    L = build_liouvillian(H, build_collapse(scheme8))
    d = scheme8.dim
    row = sum(L.matrix[i * d + i] for i in range(d))
    assert np.max(np.abs(row)) < 1e-12


def test_pure_decay_exponential():
    # H = 0, single excited state with b = 1: rho_ee(t) = e^{-Gamma t}
    L = build_liouvillian(np.zeros((2, 2), dtype=complex), two_level_collapse())
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    ev = evolve(L, rho0, 5.0, n_samples=11)
    for t, rho in zip(ev.times, ev.states):
        assert rho[0, 0].real == pytest.approx(np.exp(-t), abs=1e-8)


def test_decay_redistributes_by_branching(scheme8):
    L = build_liouvillian(np.zeros((8, 8), dtype=complex),
                          build_collapse(scheme8))
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[scheme8.index("excited", 0.0)] = 0.0
    rho0[scheme8.index("excited", 0.0), scheme8.index("excited", 0.0)] = 1.0
    ev = evolve(L, rho0, 20.0)
    pops = np.real(np.diag(ev.states[-1]))
    assert pops[scheme8.index("ground", -1.0)] == pytest.approx(1 / 6, abs=1e-8)
    assert pops[scheme8.index("ground", 0.0)] == pytest.approx(2 / 3, abs=1e-8)
    assert pops[scheme8.index("ground", 1.0)] == pytest.approx(1 / 6, abs=1e-8)


def test_pump_off_decay_to_ground(scheme8):
    # excited-seeded state decays entirely into the ground manifold by 20/Gamma
    L = build_liouvillian(pump_hamiltonian(scheme8, 0.0, 0.0),
                          build_collapse(scheme8))
    rho0 = np.zeros((8, 8), dtype=complex)
    for e in scheme8.excited_indices:
        rho0[e, e] = 1.0 / 5
    ev = evolve(L, rho0, 20.0)
    excited_pop = sum(ev.states[-1][e, e].real
                      for e in scheme8.excited_indices)
    assert excited_pop < 1e-8


def test_s36_steady_state_inversion(scheme8):
    rho, _ = pump_only_steady_state(scheme8, omega_from_saturation(36, 0.0), 0.0)
    pops = np.real(np.diag(rho))
    e0 = pops[scheme8.index("excited", 0.0)]
    g0 = pops[scheme8.index("ground", 0.0)]
    g1 = pops[scheme8.index("ground", 1.0)]
    assert e0 > g1                       # inversion |m_g|=1 vs m_e=0
    assert g0 > e0                       # but no inversion vs m_g=0
    for m in (-2.0, 2.0):
        assert abs(pops[scheme8.index("excited", m)]) < 1e-10


def test_evolve_agrees_with_steady_state(scheme8):
    rho_ss, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    ev = evolve(L, equal_ground_state(scheme8), 200.0)
    assert np.max(np.abs(ev.states[-1] - rho_ss)) < 1e-6


def test_two_level_closed_form_excited_population():
    # F_g=0 -> F_e=1 driven by the pump alone is an exact two-level atom
    scheme = build_scheme(0, 1)
    for S in (0.5, 2.0, 36.0):
        for delta in (0.0, 1.5):
            omega = omega_from_saturation(S, delta)
            rho, _ = pump_only_steady_state(scheme, omega, delta)
            e0 = rho[scheme.index("excited", 0.0),
                     scheme.index("excited", 0.0)].real
            assert e0 == pytest.approx(two_level_excited_population(S),
                                       rel=1e-10)
            assert saturation_parameter(omega, delta) == pytest.approx(S)


@pytest.mark.parametrize("omega_p, delta_p", [(0.0, 0.0), (10.0, -3.0)])
def test_zero_to_one_line_is_the_two_level_atom(omega_p, delta_p):
    # the pumped 0 -> 1 line holds the hand-built 2 x 2 atom in its pi pair
    # and nothing elsewhere
    scheme = build_scheme(0, 1)
    rho, _ = pump_only_steady_state(scheme, omega_p, delta_p)
    ref = steady_state(build_liouvillian(
        two_level_hamiltonian(omega_p, delta_p), two_level_collapse()))
    pair = [scheme.index("excited", 0.0), scheme.index("ground", 0.0)]
    padded = np.zeros_like(rho)
    padded[np.ix_(pair, pair)] = ref
    assert np.max(np.abs(rho - padded)) <= 1e-14


def test_undriven_null_space_reported(scheme8):
    L = build_liouvillian(pump_hamiltonian(scheme8, 0.0, 0.0),
                          build_collapse(scheme8))
    with pytest.raises(DegenerateSteadyStateError) as err:
        steady_state(L)
    assert err.value.dimension >= 9  # (2 F_g + 1)^2


@pytest.mark.parametrize("line", [(2, 1), (1.5, 0.5)])
def test_null_space_on_pumped_dark_line(line):
    # the pi pump leaves the m_g = +-F_g ground states dark, so the null
    # space is four-dimensional
    scheme = build_scheme(*line)
    L = build_liouvillian(pump_hamiltonian(scheme, 2.0, 0.5),
                          build_collapse(scheme))
    with pytest.raises(DegenerateSteadyStateError) as err:
        steady_state(L)
    assert err.value.dimension == 4


def test_steady_state_takes_only_the_liouvillian():
    # the state is unique or the call raises: no mode and no initial state
    assert list(inspect.signature(steady_state).parameters) == ["L"]


def test_steady_state_fixed_point_residual(scheme8):
    rho, L = pump_only_steady_state(scheme8, 2.0, 1.0)
    assert np.max(np.abs(L.apply(rho))) < 1e-10


def test_liouvillian_spectrum_nonpositive(scheme8, scheme12):
    for scheme, omega, delta in ((scheme8, 3.0, 0.0), (scheme8, 1.0, 5.0),
                                 (scheme12, 2.0, 0.75)):
        L = build_liouvillian(pump_hamiltonian(scheme, omega, delta),
                              build_collapse(scheme))
        vals = np.linalg.eigvals(L.matrix)
        assert np.max(vals.real) <= 1e-10


def test_inversion_threshold_near_4(scheme8):
    scan = inversion_scan(scheme8, 0.0, np.linspace(0.5, 20.0, 14))
    assert scan.s_star is not None
    assert 3.6 <= scan.s_star <= 4.4


def test_inversion_scan_small_s_limit(scheme8):
    # S -> 0: excited population vanishes.  The infinite-time ground
    # distribution tends to the pump-strength-independent optically pumped
    # fixed point (not the equal mixture, which is only stationary at S = 0
    # exactly); at vanishing drive the equal start is unchanged over any
    # finite horizon.
    scan = inversion_scan(scheme8, 0.0, [1e-4, 1e-3])
    for p in scan.points:
        excited = sum(p.populations[e] for e in scheme8.excited_indices)
        assert excited < 1e-3
    assert np.allclose(scan.points[0].populations,
                       scan.points[1].populations, atol=1e-3)
    L = build_liouvillian(pump_hamiltonian(scheme8, 1e-6, 0.0),
                          build_collapse(scheme8))
    ev = evolve(L, equal_ground_state(scheme8), 20.0)
    # populations shift only at second order in the drive; coherences are
    # first order (~1e-6) and set the scale of the full-matrix bound
    pops = np.real(np.diag(ev.states[-1]))
    assert np.max(np.abs(pops - 1.0 / 3.0 * np.array([0, 1, 0, 1, 0, 1, 0, 0]))) < 1e-9
    assert np.max(np.abs(ev.states[-1] - equal_ground_state(scheme8))) < 1e-5


def test_inversion_monotonicity_and_evolution_crosscheck(scheme8):
    s_grid = np.geomspace(0.1, 100.0, 13)
    scan = inversion_scan(scheme8, 0.0, s_grid)
    e0 = scheme8.index("excited", 0.0)
    vals = [p.populations[e0] for p in scan.points]
    assert all(vals[i] < vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    # spot-check 5 points against direct time evolution
    for p in scan.points[::3]:
        H = pump_hamiltonian(scheme8, p.omega_p, 0.0)
        L = build_liouvillian(H, build_collapse(scheme8))
        horizon = min(max(300.0 / p.omega_p ** 2, 200.0), 20000.0)
        ev = evolve(L, equal_ground_state(scheme8), horizon)
        assert ev.states[-1][e0, e0].real == pytest.approx(p.populations[e0],
                                                        abs=2e-5)


def test_evolution_invariants(scheme8):
    rho_ss, L = pump_only_steady_state(scheme8, 3.0, 0.0)
    ev = evolve(L, equal_ground_state(scheme8), 50.0)
    for rho in ev.states:
        herm, tr, min_eig = density_matrix_defects(rho)
        assert herm < 1e-12
        assert tr < 1e-10
        assert min_eig > -1e-8


def test_mirror_symmetry_preserved_in_time(scheme8):
    L = build_liouvillian(pump_hamiltonian(scheme8, 3.0, 0.0),
                          build_collapse(scheme8))
    perm = mirror_permutation(scheme8)
    ev = evolve(L, equal_ground_state(scheme8), 30.0)
    for rho in ev.states:
        assert np.max(np.abs(rho[np.ix_(perm, perm)] - rho)) < 1e-10


def test_inversion_flag_matches_populations(scheme8):
    scan = inversion_scan(scheme8, 0.0, np.linspace(0.5, 20.0, 14))
    e0 = scheme8.index("excited", 0.0)
    g_side = [scheme8.index("ground", m) for m in (-1.0, 1.0)]
    flags = [p.inverted for p in scan.points]
    assert flags == [bool(p.populations[e0] > max(p.populations[g_side]))
                     for p in scan.points]
    assert flags[0] is False and flags[-1] is True


@pytest.mark.parametrize("line, name", [((0.5, 1.5), "F_g = 0.5 -> F_e = 1.5"),
                                        ((1.5, 2.5), "F_g = 1.5 -> F_e = 2.5"),
                                        ((0, 1), "F_g = 0 -> F_e = 1")])
def test_inversion_scan_rejects_line_without_the_pair(line, name):
    # the criterion compares excited m = 0 with ground m = +-1: a half-integer
    # line has no integer m, and F_g = 0 has no ground m = +-1
    with pytest.raises(ValueError, match=name):
        inversion_scan(build_scheme(*line), 0.0, [1.0, 10.0])


def test_saturation_point_invariant(scheme8):
    scan = inversion_scan(scheme8, 0.7, [2.0, 8.0])
    for p in scan.points:
        assert saturation_parameter(p.omega_p, 0.7) == pytest.approx(
            p.S, abs=1e-12)


def _random_lindblad_generator(rng, d):
    # a random Hermitian H and three random collapse operators
    def gaussian():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = gaussian()
    sigmas = tuple(0.3 * gaussian() for _ in range(3))
    return build_liouvillian(0.5 * (a + a.conj().T),
                             CollapseChannels(sigmas=sigmas))


def test_evolve_matches_scipy(rng):
    L = _random_lindblad_generator(rng, 4)
    rho0 = random_density_matrix(rng, 4)
    ev = evolve(L, rho0, 5.0, n_samples=11)
    ref = solve_ivp(lambda _, y: L.matrix @ y, (0, 5.0), rho0.reshape(-1),
                    t_eval=ev.times, rtol=1e-12, atol=1e-14, method="DOP853")
    assert np.max(np.abs(ev.states.reshape(11, -1) - ref.y.T)) < 1e-8


def test_evolve_matches_expm(rng):
    L = _random_lindblad_generator(rng, 3)
    rho0 = random_density_matrix(rng, 3)
    ev = evolve(L, rho0, 1.7, n_samples=2)
    ref = expm(1.7 * L.matrix) @ rho0.reshape(-1)
    assert np.max(np.abs(ev.states[-1].reshape(-1) - ref)) < 1e-9


def test_evolve_uniform_grid_uses_one_propagator(scheme8, monkeypatch):
    from mirrorless import dynamics
    calls = []

    def counting_expm(a):
        calls.append(a)
        return expm(a)

    monkeypatch.setattr(dynamics, "expm", counting_expm)
    L = build_liouvillian(pump_hamiltonian(scheme8, 1.0, 0.0),
                          build_collapse(scheme8))
    ev = evolve(L, equal_ground_state(scheme8), 1000.0, n_samples=20001)
    assert len(calls) == 1
    assert np.array_equal(ev.times, np.linspace(0.0, 1000.0, 20001))


def test_evolve_hermitian_samples(rng):
    d = 4
    herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    H = 0.5 * (herm + herm.conj().T)
    eye = np.eye(d)
    L = Liouvillian(matrix=-1j * (np.kron(H, eye) - np.kron(eye, H.T)), dim=d)
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho0[0, 1] = 1e-9  # a non-Hermitian defect that the repair must remove
    ev = evolve(L, rho0, 10.0, n_samples=21)
    for m in ev.states[1:]:
        assert np.max(np.abs(m - m.conj().T)) < 1e-14


def test_evolve_rejects_bad_grid(scheme8):
    L = build_liouvillian(pump_hamiltonian(scheme8, 1.0, 0.0),
                          build_collapse(scheme8))
    for n_samples in (0, 1):
        with pytest.raises(ValueError, match="n_samples"):
            evolve(L, equal_ground_state(scheme8), 1.0, n_samples=n_samples)


def test_half_integer_line_dynamics():
    scheme = build_scheme(0.5, 1.5)
    rho, L = pump_only_steady_state(scheme, 2.0, 0.5)
    assert np.max(np.abs(L.apply(rho))) < 1e-10
    herm, tr, min_eig = density_matrix_defects(rho)
    assert herm < 1e-12 and tr < 1e-10 and min_eig > -1e-8
    assert np.max(np.real(np.linalg.eigvals(L.matrix))) <= 1e-10
