"""Coherence-order blocks and the weak probe's parity sectors: structure,
the blocked and sector routes against the full-matrix oracles, the block
searches and null-space passes that a Liouvillian's memos save, and the
Schur forms that conjugate blocks share in the regression engine."""

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import mirrorless
from mirrorless import (CellConfig, DegenerateSteadyStateError, FieldConfig,
                        Liouvillian, build_collapse, build_liouvillian,
                        build_scheme, dynamics, equal_ground_state,
                        perpendicular_gain_spectrum, pump_only_steady_state,
                        steady_state, transport_coefficients)
from mirrorless import spectra
from mirrorless.dynamics import _pump_line
from mirrorless.levels import probe_raising, pump_hamiltonian, pump_raising
from mirrorless.spectra import (_N_REFINE, _argmin_lowest,
                                correlation_spectrum, min_absorption_scan,
                                parallel_dipole, perpendicular_dipole,
                                weak_probe_absorption)

from oracles import (commutator_superoperator, regression_oracle,
                     steady_state_oracle, two_level_collapse,
                     two_level_dipole, two_level_hamiltonian,
                     weak_probe_full_oracle)

# every dipole line F_g -> F_e with at most 12 sublevels
LINES = [(fg / 2, fe / 2) for fg in range(11) for fe in (fg - 2, fg, fg + 2)
         if fe >= 0 and fg + fe >= 2 and fg + fe + 2 <= 12]

# the F -> F - 1 lines are dark: the pumped null space is not unique
BRIGHT = [line for line in LINES if line[1] >= line[0]]


def _coherence_order(scheme):
    m = np.array([scheme.m_of(i) for i in range(scheme.dim)])
    return (m[:, None] - m[None, :]).ravel()


def _liouvillian(scheme, omega_p, delta_p, omega_pr=0.0):
    Vx = probe_raising(scheme) * omega_pr
    H = pump_hamiltonian(scheme, omega_p, delta_p) + 0.5 * (Vx + Vx.conj().T)
    return build_liouvillian(H, build_collapse(scheme))


def _close(a, b, tol=1e-12):
    return np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


def test_every_line_listed():
    assert len(LINES) == 15 and (2.0, 3.0) in LINES and (0.5, 0.5) in LINES


@pytest.mark.parametrize("line", LINES)
def test_blocks_are_coherence_orders(line):
    # the pi pump and the decay conserve q = m_i - m_j: no block mixes two
    # q, and each q is the union of its blocks; the x probe joins them all
    scheme = build_scheme(*line)
    q = _coherence_order(scheme)
    blocks = _liouvillian(scheme, 2.0, 0.5).blocks
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(q.size))
    assert all(len(set(q[b])) == 1 for b in blocks)
    for order in set(q):
        members = [b for b in blocks if q[b[0]] == order]
        assert np.array_equal(np.sort(np.concatenate(members)),
                              np.flatnonzero(q == order))
    assert len(_liouvillian(scheme, 2.0, 0.5, 0.3).blocks) == 1


@pytest.mark.parametrize("line", LINES)
def test_blocks_match_connected_components(line):
    # the same sets in the same order as scipy's weak components, for L and
    # for the deflated M = L + |rho><1| of the regression spectrum, whose
    # rank-one term joins every block that holds a population
    scheme = build_scheme(*line)
    L = _liouvillian(scheme, 2.0, 0.5).matrix
    rho = equal_ground_state(scheme).reshape(-1)
    for A in (L, L + np.outer(rho, np.eye(scheme.dim).reshape(-1))):
        count, labels = connected_components(A != 0, connection="weak")
        blocks = Liouvillian(matrix=A, dim=scheme.dim).blocks
        assert len(blocks) == count
        assert all(np.array_equal(b, np.flatnonzero(labels == k))
                   for k, b in enumerate(blocks))


def _counted(monkeypatch, owner, name, keep=lambda *a, **k: True):
    """Replace ``owner.name`` by a wrapper; the returned list gets one entry
    per call for which ``keep(*args, **kwargs)`` holds."""
    calls, original = [], getattr(owner, name)

    def counted(*args, **kwargs):
        if keep(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


CELL = CellConfig.pencil(length=0.1, density=1.16e16,
                         gamma_phys=2 * np.pi * 5.6e6,
                         wavelength=780.241e-9, beam_radius=1e-3)


def test_scan_finds_blocks_once_per_line_and_detuning(monkeypatch, scheme12):
    # the pump line hands out Liouvillians that already hold its blocks:
    # no steady state, spectrum or transport of the scan searches a pattern
    _pump_line.cache_clear()
    searches = _counted(monkeypatch, dynamics, "_components")
    for delta_p in (0.5, 1.5):
        for omega_p in np.linspace(0.2, 6.0, 8):
            rho, L = pump_only_steady_state(scheme12, omega_p, delta_p)
            correlation_spectrum(L, rho, perpendicular_dipole(scheme12),
                                 [-1.0, 0.0, 1.0])
            transport_coefficients(scheme12, FieldConfig(
                omega_p=omega_p, omega_pr=0.0, delta_p=delta_p,
                delta_pr=delta_p), CELL)
    assert len(searches) == 2
    assert max(len(b) for b in L.blocks) == 22


@pytest.mark.parametrize("make_dipole", [parallel_dipole,
                                         perpendicular_dipole])
def test_regression_searches_no_pattern(monkeypatch, scheme12, make_dipole):
    # M = L + |rho><1| has L's blocks, so the regression engine reads them
    # off L, which found them once, for its steady state
    L = _liouvillian(scheme12, 3.0, 0.75)
    rho = steady_state(L)
    searches = _counted(monkeypatch, dynamics, "_components")
    correlation_spectrum(L, rho, make_dipole(scheme12),
                         np.linspace(-6.0, 6.0, 7))
    assert searches == []


def test_gain_spectrum_measures_the_null_space_once(monkeypatch, scheme12):
    # the steady state measures the null space on the 5 x 5 ground rate
    # matrix, and the weak-probe guard counts L's all-zero columns: no SVD
    # of L's blocks
    passes = _counted(monkeypatch, np.linalg, "svd",
                      lambda *a, **k: k.get("compute_uv") is False)
    perpendicular_gain_spectrum(
        scheme12, FieldConfig(omega_p=3.0, omega_pr=0.0, delta_p=0.75,
                              delta_pr=0.75), [-1.0, 0.0, 1.0])
    assert [a[0].shape for a in passes] == [(5, 5)]


def test_pump_only_state_runs_no_svd_of_the_liouvillian(monkeypatch,
                                                        scheme8):
    # the pump-only path is its own exported entry (a tracer that wraps
    # the exported functions sees it as dynamics.pump_only_steady_state):
    # it calls no steady_state, decomposes none of L's blocks, and L holds
    # nothing beyond its fields and its blocks
    assert "pump_only_steady_state" in mirrorless.__all__
    calls = _counted(monkeypatch, dynamics, "steady_state")
    svds = _counted(monkeypatch, np.linalg, "svd")
    _, L = pump_only_steady_state(scheme8, 2.0, 0.75)
    transport_coefficients(scheme8, FieldConfig(
        omega_p=2.0, omega_pr=0.0, delta_p=0.75, delta_pr=0.75), CELL)
    assert calls == []
    assert [a[0].shape for a in svds] == [(3, 3)] * 2
    assert sorted(vars(L)) == ["blocks", "dim", "matrix"]


@pytest.mark.parametrize("line", [(2, 3), (2, 1)])
def test_steady_state_decomposes_each_block_once(monkeypatch, line):
    # each steady state of L takes one full SVD of each block and no
    # values-only pass, and L keeps none of them; on the dark 2 -> 1 line
    # both steady states raise
    scheme = build_scheme(*line)
    L = _liouvillian(scheme, 2.0, 0.75)
    svds = _counted(monkeypatch, np.linalg, "svd",
                    lambda *a, **k: k.get("compute_uv", True))
    values_only = _counted(monkeypatch, np.linalg, "svd",
                           lambda *a, **k: not k.get("compute_uv", True))
    if line == (2, 1):
        for _ in range(2):
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(L)
    else:
        assert np.array_equal(steady_state(L), steady_state(L))
    assert values_only == []
    assert sorted(a[0].shape for a in svds) \
        == sorted(2 * [(len(b), len(b)) for b in L.blocks])
    assert sorted(vars(L)) == ["blocks", "dim", "matrix"]


@pytest.mark.parametrize("line, omega_p, delta_p",
                         [((1, 2), 2.0, 1.0), ((2, 3), 3.0, 1.5),
                          ((1.5, 2.5), 0.4, 0.75), ((1, 1), 2.0, 0.0)])
def test_steady_state_matches_full_svd(line, omega_p, delta_p):
    scheme = build_scheme(*line)
    for L in (_liouvillian(scheme, omega_p, delta_p),
              _liouvillian(scheme, omega_p, delta_p, 0.1)):
        assert _close(steady_state(L), steady_state_oracle(L.matrix))


def _spectrum_cases():
    scheme8, scheme12 = build_scheme(1, 2), build_scheme(2, 3)
    for omega, delta in ((0.25, 0.0), (4.0, 2.0)):  # 0.25: exceptional point
        L = build_liouvillian(two_level_hamiltonian(omega, delta),
                              two_level_collapse())
        yield L, steady_state(L), two_level_dipole()
    for scheme, omega, delta in ((scheme8, 3.0, 0.5), (scheme12, 4.0, 1.75)):
        rho, L = pump_only_steady_state(scheme, omega, delta)
        yield L, rho, parallel_dipole(scheme)
        yield L, rho, perpendicular_dipole(scheme)
    # the perpendicular dipole on the other eight bright lines
    for line in BRIGHT:
        if line not in ((1, 2), (2, 3)):
            scheme = build_scheme(*line)
            rho, L = pump_only_steady_state(scheme, 2.5, 0.75)
            yield L, rho, perpendicular_dipole(scheme)


@pytest.mark.parametrize("case", range(14))
def test_regression_matches_full_schur(case):
    L, rho, d_op = list(_spectrum_cases())[case]
    grid = np.linspace(-9.0, 9.0, 181)
    g = correlation_spectrum(L, rho, d_op, grid).absorption * d_op.peak_norm()
    assert _close(g, regression_oracle(L.matrix, rho, d_op.d_plus, grid))


# sizes of the Schur forms of one regression spectrum, per bright line: the
# perpendicular dipole's two live blocks q = +-1 are transposes of each
# other, so one form serves both, but on 0 -> 1 and 1 -> 1 they are mirror
# images (equal in size, not transposes) and take one each; the parallel
# dipole's q = 0 block is its own partner
SCHUR_SIZES = {(0, 1): ([2, 2], [6]), (0.5, 0.5): ([4], [8]),
               (0.5, 1.5): ([8], [10]), (1, 1): ([4, 4], [10]),
               (1, 2): ([12], [14]), (1.5, 1.5): ([12], [16]),
               (1.5, 2.5): ([16], [18]), (2, 2): ([16], [18]),
               (2, 3): ([20], [22]), (2.5, 2.5): ([20], [24])}


@pytest.mark.parametrize("line", BRIGHT)
def test_one_schur_form_per_conjugate_pair(monkeypatch, line):
    scheme = build_scheme(*line)
    rho, L = pump_only_steady_state(scheme, 3.0, 0.75)
    forms = _counted(monkeypatch, spectra, "schur")
    for make_dipole, sizes in zip((perpendicular_dipole, parallel_dipole),
                                  SCHUR_SIZES[line]):
        forms.clear()
        correlation_spectrum(L, rho, make_dipole(scheme),
                             np.linspace(-6.0, 6.0, 7))
        assert [len(a[0]) for a in forms] == sizes


def test_unpaired_block_is_factorized_alone(monkeypatch, scheme8):
    # damp the q = -1 coherences a little more than the q = +1 ones: the
    # two blocks are no longer conjugate, and each takes its own Schur form
    rho, L = pump_only_steady_state(scheme8, 3.0, 0.75)
    A = L.matrix.copy()
    lower = np.flatnonzero(_coherence_order(scheme8) == -1)
    A[lower, lower] -= 0.05
    d_op = perpendicular_dipole(scheme8)
    grid = np.linspace(-9.0, 9.0, 181)
    forms = _counted(monkeypatch, spectra, "schur")
    g = correlation_spectrum(Liouvillian(matrix=A, dim=scheme8.dim), rho,
                             d_op, grid).absorption * d_op.peak_norm()
    assert [len(a[0]) for a in forms] == [12, 12]
    assert _close(g, regression_oracle(A, rho, d_op.d_plus, grid))
    assert not _close(g, regression_oracle(L.matrix, rho, d_op.d_plus, grid),
                      1e-3)


@pytest.mark.parametrize("delta_p", [0.0, 0.75])
@pytest.mark.parametrize("line", [(1, 2), (2, 3)])
def test_min_absorption_matches_oracle_minimum(line, delta_p):
    # the scan's coarse grid and its refinement, with the spectra from one
    # Schur form of the whole M: the same offset of the minimum
    scheme = build_scheme(*line)
    d_op = perpendicular_dipole(scheme)
    omegas = np.linspace(0.3, 6.0, 5)
    scan = min_absorption_scan(scheme, delta_p, omegas)
    wmax = np.max(np.abs(pump_raising(scheme)))

    def oracle(L, rho, grid):
        return regression_oracle(L.matrix, rho, d_op.d_plus,
                                 grid) / d_op.peak_norm()

    for omega_p, point in zip(omegas, scan.points):
        rho, L = pump_only_steady_state(scheme, omega_p, delta_p)
        span = np.sqrt((wmax * omega_p) ** 2 + delta_p ** 2) \
            + abs(delta_p) + 8.0
        grid = np.linspace(-span, span, 321)
        a = oracle(L, rho, grid)
        i = _argmin_lowest(a)
        step = grid[1] - grid[0]
        fine = np.linspace(grid[i] - 1.5 * step, grid[i] + 1.5 * step,
                           _N_REFINE)
        a_fine = oracle(L, rho, fine)
        j = _argmin_lowest(a_fine)
        at = min((a[i], grid[i]), (a_fine[j], fine[j]))[1]
        assert point.delta_at_min == at


def _probe_parts(scheme):
    V = perpendicular_dipole(scheme).d_plus
    return commutator_superoperator(V), commutator_superoperator(V.conj().T)


@pytest.mark.parametrize("line", BRIGHT)
def test_parity_sectors_split(line):
    # the premise of the weak probe's sectors: the pump-only L keeps the
    # parity of q and the x probe flips it, so harmonic rho_m has
    # q = m (mod 2); the trace row lies in the even sector
    scheme = build_scheme(*line)
    L0 = _liouvillian(scheme, 3.0, 1.5).matrix
    L_plus, L_minus = _probe_parts(scheme)
    q = _coherence_order(scheme)
    even, odd = np.flatnonzero(q % 2 == 0), np.flatnonzero(q % 2 == 1)
    assert len(even) + len(odd) == scheme.dim ** 2
    assert not np.any(L0[np.ix_(even, odd)]) \
        and not np.any(L0[np.ix_(odd, even)])
    for hop in (L_plus, L_minus):
        assert not np.any(hop[np.ix_(even, even)]) \
            and not np.any(hop[np.ix_(odd, odd)])
    assert not np.any(np.eye(scheme.dim).ravel()[odd])


def _reflection_superoperator(scheme):
    # S|F, m> = s |F, -m>, s = (-1)^(F - m) on the ground and -(-1)^(F - m)
    # on the excited manifold; rho -> S rho S^H is kron(S, S) on the
    # row-major vec, as S is real
    S = np.zeros((scheme.dim, scheme.dim))
    for i, (manifold, m) in enumerate(scheme.sublevels):
        F = scheme.F_g if manifold == "ground" else scheme.F_e
        S[scheme.index(manifold, -m), i] = \
            (1 if manifold == "ground" else -1) * (-1) ** round(F - m)
    return np.kron(S, S)


@pytest.mark.parametrize("line", LINES)
def test_reflection_splits_parity_sectors(line):
    # the premise of the weak probe's halved sectors: the m -> -m
    # reflection commutes with the pump-only L and flips the sign of the
    # x probe, and the pump steady state is even under it, so harmonic
    # rho_m has reflection parity (-1)^m.  Bit for bit on every line but
    # the dark 3/2 -> 1/2, where the decay rates 1/3, 1/6 and 1/2 of the
    # excited m = -1/2 and m = +1/2 sum in two orders and land one ulp
    # apart
    scheme = build_scheme(*line)
    S = _reflection_superoperator(scheme)
    for omega_p, delta_p in ((3.0, 1.5), (0.4, 0.0)):
        L0 = _liouvillian(scheme, omega_p, delta_p).matrix
        mirrored = S @ L0 @ S.T
        if line == (1.5, 0.5):
            assert np.max(np.abs(mirrored - L0)) \
                <= np.finfo(float).eps * np.max(np.abs(L0))
        else:
            assert np.array_equal(mirrored, L0)
        if line in BRIGHT:
            rho = pump_only_steady_state(scheme, omega_p,
                                         delta_p)[0].reshape(-1)
            assert np.max(np.abs(S @ rho - rho)) <= 1e-14
    for hop in _probe_parts(scheme):
        assert np.array_equal(S @ hop @ S.T, -hop)


@pytest.mark.parametrize("probe_ratio", [1e-3, 0.1], ids=["weak", "strong"])
@pytest.mark.parametrize("n_harmonics", [1, 2, 3])
@pytest.mark.parametrize("line", BRIGHT)
def test_weak_probe_sectors_match_full_oracle(line, n_harmonics, probe_ratio):
    scheme = build_scheme(*line)
    omega_pr = probe_ratio * 3.0
    L = _liouvillian(scheme, 3.0, 1.5)
    grid = np.linspace(-4.0, 4.0, 5)  # contains delta = 0
    d_op = perpendicular_dipole(scheme)
    got = weak_probe_absorption(scheme, L, omega_pr, grid,
                                n_harmonics).absorption * d_op.peak_norm()
    ref = weak_probe_full_oracle(L.matrix, omega_pr * d_op.d_plus, grid,
                                 n_harmonics) * 2.0 / omega_pr ** 2
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_weak_probe_unsplit_pattern(scheme8):
    # a static x-probe term in L0 mixes every q, so the parity sectors do
    # not split L0: the weak probe refuses it rather than solve a wrong
    # system
    L = _liouvillian(scheme8, 3.0, 1.5, 0.3)
    with pytest.raises(ValueError, match="coherence orders"):
        weak_probe_absorption(scheme8, L, 0.3, np.linspace(-4.0, 4.0, 5))


def test_weak_probe_unreflected_pattern(scheme8):
    # a Zeeman shift 0.1 m keeps every q but breaks the m -> -m
    # reflection: the weak probe refuses it rather than solve the wrong
    # half of each sector
    m = np.array([scheme8.m_of(i) for i in range(scheme8.dim)])
    H = pump_hamiltonian(scheme8, 3.0, 1.5) + np.diag(0.1 * m)
    L = build_liouvillian(H, build_collapse(scheme8))
    with pytest.raises(ValueError, match="reflection"):
        weak_probe_absorption(scheme8, L, 0.3, np.linspace(-4.0, 4.0, 5))


@pytest.mark.parametrize("line, size", [((1, 2), 18), ((2, 3), 38)])
def test_weak_probe_solves_halved_sectors(monkeypatch, line, size):
    # every system of the weak probe is one reflection-parity half of a
    # q-parity sector: at most 18 of 64 indices on 1 -> 2 and 38 of 144 on
    # 2 -> 3, with n_harmonics + 1 solves per offset
    scheme = build_scheme(*line)
    _, L = pump_only_steady_state(scheme, 3.0, 1.5)
    solves = _counted(monkeypatch, spectra.np.linalg, "solve")
    weak_probe_absorption(scheme, L, 3e-3, [-2.0, 0.5, 1.0], n_harmonics=2)
    assert len(solves) == 3 * 3
    assert max(len(a[0]) for a in solves) <= size
