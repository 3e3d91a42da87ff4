"""Independent oracles used by the test suite.

Each oracle is deliberately implemented from a different formulation than the
library code it checks:

* ``threej_oracle`` is the general 3-j symbol from the v-sum arrangement of
  the Racah formula with exact Fractions throughout, and
  ``branching_oracle`` and ``dipole_weight_oracle`` are built on it (the
  library reads the branching ratios from the closed form of a rank-1
  coupling, and sets the signs of the F -> F lines by rule).
* ``master_rhs_oracle`` evaluates the master-equation right-hand side with
  naive element-by-element double loops (the library builds a superoperator).
* ``two_level_excited_population`` and ``two_level_absorption`` are
  textbook closed forms for a driven two-level atom, and
  ``two_level_hamiltonian``, ``two_level_collapse`` and ``two_level_dipole``
  build that atom by hand as a 2 x 2 system (the program runs it as the
  0 -> 1 line).
* ``build_hamiltonian`` is the full rotating-frame Hamiltonian with pump and
  probe, written out from the printed matrix (the program assembles the
  pump-only one); ``mirror_permutation`` is the m -> -m reflection of a
  scheme's sublevels.
* ``degenerate_probe_steady_state`` is the static steady state with an
  exactly degenerate probe at finite Rabi frequency, and ``alpha_x_oracle``
  its exact omega_pr -> 0 linear response, solved on the blocks of the
  pump-only L (the program takes alpha_x = alpha_z, as the medium is
  isotropic).
* ``density_matrix_defects`` and ``saturation_parameter`` are the
  invariants of a density matrix and the definition of S that the program
  inverts.
* ``commutator_correlation_oracle`` samples the two-time correlation in the
  time domain with one scipy matrix exponential, and
  ``half_fourier_oracle`` transforms it with an endpoint-corrected
  trapezoid (the library evaluates the same transform as a resolvent).
* ``steady_state_oracle`` and ``regression_oracle`` are the full-matrix
  forms of the library's steady state and regression spectrum: one SVD, and
  one ordered Schur form with one triangular solve per offset, of the whole
  144 x 144 (at most) Liouvillian (the library factorizes its diagonal
  blocks one by one).  ``block_null_vectors_oracle`` decomposes every
  diagonal block in full, blocks found by scipy's connected components (the
  library finds them by label propagation and keeps them on the
  Liouvillian), and ``steady_state_blocks_oracle`` is the state from
  its one null vector.
* ``weak_pump_limit`` is the omega_p -> 0+ limit of the ground
  populations in exact Fractions, from the rate matrix of pi excitation
  and decay built from the branching ratios alone (the library eliminates
  the whole population block at finite omega_p in double precision).
* ``steady_state_mp_oracle`` solves the q = 0 block of a pump-only L with
  the trace row, by Gaussian elimination in 40-digit mpmath (the library
  eliminates that block onto the ground populations in double precision).
* ``weak_probe_oracle`` solves the whole truncated harmonic-balance system,
  every harmonic at once, with the trace condition as a sparse square
  saddle-point system, or bordered by it by dense least squares (the
  library eliminates the harmonics by a matrix continued fraction and uses
  rho_{-m} = rho_m^H).
* ``weak_probe_full_oracle`` is that continued fraction on the whole d^2
  index set, every solve of full size (the library solves each harmonic in
  its parity sector, about d^2/2).
* ``table_csv_oracle`` and ``table_json_oracle`` write a result table one
  value at a time from per-row sequences of scalars, dispatching on each
  value's type (the library formats one float array in one pass and takes
  the bool columns from their unit).
"""

import json
from fractions import Fraction
from math import factorial, sqrt

import numpy as np
from scipy import sparse
from scipy.linalg import expm, schur, solve_triangular
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from mirrorless import (CollapseChannels, DipoleOperator, build_collapse,
                        build_liouvillian, probe_raising, pump_hamiltonian,
                        pump_raising, steady_state)
from mirrorless.angular import branching_ratios


def _fac(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return factorial(n)


def threej_oracle_squared(tj1, tj2, tj3, tm1, tm2, tm3):
    """(sign, square) of a 3-j symbol, arguments doubled; exact rationals.

    v-sum form: 3j = (-1)^(2j2 - j1 - m1) * sqrt(pref) * sum_v term(v) with
    pref = f(j3-m3) f(j3+m3) Delta^2 / (f(j2+m2) f(j2-m2) f(j1-m2-m3) f(j1+m2+m3))
    """
    if tm1 + tm2 + tm3 != 0:
        return 0, Fraction(0)
    if not (abs(tj1 - tj2) <= tj3 <= tj1 + tj2):
        return 0, Fraction(0)
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0, Fraction(0)

    def f2(tn):  # factorial of doubled-integer argument
        if tn % 2 != 0:
            raise ValueError("parity")
        return _fac(tn // 2)

    delta_sq = Fraction(
        f2(tj1 + tj2 - tj3) * f2(tj1 - tj2 + tj3) * f2(-tj1 + tj2 + tj3),
        f2(tj1 + tj2 + tj3 + 2),
    )
    pref = delta_sq * Fraction(
        f2(tj3 - tm3) * f2(tj3 + tm3),
        f2(tj2 + tm2) * f2(tj2 - tm2) * f2(tj1 - tm2 - tm3) * f2(tj1 + tm2 + tm3),
    )

    tu = tj2 - tj1 + tj3
    total = Fraction(0)
    for v in range((min(tj3 - tm3, tu) // 2) + 1):
        tv = 2 * v
        args = (tj2 + tj3 - tm2 - tm3 - tv, tj1 + tm2 + tm3 + tv,
                tj3 - tm3 - tv, tu - tv, tj3 + tm3 - tu + tv)
        if any(a < 0 for a in args):
            continue
        num = f2(args[0]) * f2(args[1])
        den = _fac(v) * f2(args[2]) * f2(args[3]) * f2(args[4])
        total += (-1) ** v * Fraction(num, den)

    if total == 0:
        return 0, Fraction(0)
    phase = (-1) ** ((2 * tj2 - tj1 - tm1) // 2)
    sign = phase * (1 if total > 0 else -1)
    return sign, total * total * pref


def threej_oracle(j1, j2, j3, m1, m2, m3) -> float:
    sign, sq = threej_oracle_squared(
        int(2 * j1), int(2 * j2), int(2 * j3),
        int(2 * m1), int(2 * m2), int(2 * m3))
    return sign * sqrt(float(sq))


def dipole_weight_oracle(F_g, m_g, F_e, m_e, q) -> float:
    """(-1)^(F_e-1+m_g) sqrt(2F_g+1) * 3j(F_e,1,F_g; m_e,q,-m_g), via the oracle."""
    if m_e + q - m_g != 0:
        return 0.0
    w3 = threej_oracle(F_e, 1, F_g, m_e, q, -m_g)
    return (-1) ** round(F_e - 1 + m_g) * sqrt(2 * F_g + 1) * w3


def branching_oracle(F_g, F_e):
    """Exact branching table {(m_e, m_g): Fraction} from the oracle 3-j."""
    table = {}
    tFe, tFg = int(2 * F_e), int(2 * F_g)
    for tme in range(-tFe, tFe + 1, 2):
        row = {}
        for tq in (-2, 0, 2):
            tmg = tme + tq
            if abs(tmg) > tFg:
                continue
            _, sq = threej_oracle_squared(tFe, 2, tFg, tme, tq, -tmg)
            if sq != 0:
                row[tmg] = Fraction(tFg + 1) * sq
        norm = sum(row.values(), Fraction(0))
        for tmg, w2 in row.items():
            table[(Fraction(tme, 2), Fraction(tmg, 2))] = w2 / norm
    return table


def master_rhs_oracle(H, sigmas, rho, gamma=1.0):
    """Naive double-loop master-equation right-hand side.

    drho/dt = -i[H, rho] - (gamma/2) sum_k (s+ s- rho + rho s+ s- - 2 s- rho s+)
    evaluated element by element with explicit index loops; no vectorization.
    """
    d = H.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            acc = 0j
            for k in range(d):
                acc += -1j * (H[i, k] * rho[k, j] - rho[i, k] * H[k, j])
            out[i, j] = acc
    for s in sigmas:
        sp = s.conj().T
        spsm = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    spsm[i, j] += sp[i, k] * s[k, j]
        for i in range(d):
            for j in range(d):
                acc = 0j
                for k in range(d):
                    acc += spsm[i, k] * rho[k, j] + rho[i, k] * spsm[k, j]
                sand = 0j
                for k in range(d):
                    for l in range(d):
                        sand += s[i, k] * rho[k, l] * sp[l, j]
                out[i, j] += -0.5 * gamma * acc + gamma * sand
    return out


def two_level_excited_population(S: float) -> float:
    """Steady excited-state population of a driven two-level atom.

    With the saturation parameter defined as S = Omega^2 / (Gamma^2/4 +
    Delta^2), the textbook steady state rho_ee = (Omega^2/4) / (Gamma^2/4 +
    Delta^2 + Omega^2/2) reads (S/2) / (2 + S).  (In the alternative
    convention S' = S/2 this is the familiar (S'/2)/(1 + S').)
    """
    return 0.5 * S / (2.0 + S)


def two_level_absorption(delta_pr: float, gamma: float = 1.0) -> float:
    """Weak-probe absorption lineshape of an undriven two-level atom.

    Normalized to 1 at resonance: Lorentzian of HWHM gamma/2.
    """
    return (gamma ** 2 / 4.0) / (delta_pr ** 2 + gamma ** 2 / 4.0)


def two_level_hamiltonian(omega: float, delta: float) -> np.ndarray:
    """Driven nondegenerate two-level atom, basis (excited, ground).

    H = (1/2) [[2*delta, omega], [omega, 0]]; the bare-Rabi reference system
    used for Mollow-spectrum placement and as a closed-form oracle target.
    """
    h = 0.5 * np.array([[2.0 * delta, omega], [omega, 0.0]], dtype=complex)
    h.flags.writeable = False
    return h


def two_level_collapse() -> CollapseChannels:
    """Single decay channel of the two-level reference atom."""
    d = np.zeros((2, 2), dtype=complex)
    s = d.copy()
    s[1, 0] = 1.0
    s.flags.writeable = False
    d.flags.writeable = False
    return CollapseChannels(sigmas=(s, d, d))


def two_level_dipole() -> DipoleOperator:
    """Unit raising operator |e><g| of the two-level reference atom."""
    o = np.zeros((2, 2), dtype=complex)
    o[0, 1] = 1.0
    o.flags.writeable = False
    return DipoleOperator(d_plus=o, polarization="parallel", n_ground=1)


def pump_coupled_excited(scheme):
    """Excited indices with a nonzero pi coupling to the ground manifold."""
    return np.flatnonzero(pump_raising(scheme).any(axis=1)).tolist()


def build_hamiltonian(scheme, fields) -> np.ndarray:
    """Rotating-frame field-interaction Hamiltonian, H = (1/2) M in Gamma units.

    Diagonal of M: 0 on ground sublevels, 2*delta_pr on excited sublevels
    coupled only by the probe, 2*(delta_p + delta_pr) on pump-coupled excited
    sublevels.  Off-diagonal: pump couplings omega_p * w on Delta m = 0 pairs,
    probe couplings -+ i omega_pr * w / sqrt(2) on Delta m = +-1 pairs.
    Hermitian by construction.
    """
    d = scheme.dim
    m = np.zeros((d, d), dtype=complex)
    pumped = set(pump_coupled_excited(scheme))
    for e in scheme.excited_indices:
        m[e, e] = (2.0 * (fields.delta_p + fields.delta_pr) if e in pumped
                   else 2.0 * fields.delta_pr)
    vp = pump_raising(scheme) * fields.omega_p
    vx = probe_raising(scheme) * fields.omega_pr
    m += vp + vp.conj().T + vx + vx.conj().T
    h = 0.5 * m
    h.flags.writeable = False
    return h


def mirror_permutation(scheme) -> np.ndarray:
    """Index permutation implementing the m -> -m reflection."""
    perm = np.empty(scheme.dim, dtype=int)
    for i, (man, m) in enumerate(scheme.sublevels):
        perm[i] = scheme.index_map[(man, -m)]
    return perm


def degenerate_probe_steady_state(scheme, fields) -> np.ndarray:
    """Static steady state with pump and an exactly degenerate weak x probe.

    Valid when delta = omega_p - omega_pr = 0, where the single rotating
    frame at the common field frequency is consistent and the Hamiltonian is
    time independent: all excited sublevels at delta_p, pump plus probe
    couplings static.  Its probe coherences (rho12, rho34, rho56 in the
    8-level numbering), divided by omega_pr, approach the absorption
    coefficient of light generated at the pump frequency as omega_pr -> 0,
    which ``alpha_x_oracle`` takes exactly.
    """
    if abs(fields.delta) > 1e-12:
        raise ValueError("degenerate-probe steady state requires delta = 0")
    Vx = probe_raising(scheme) * fields.omega_pr
    H = pump_hamiltonian(scheme, fields.omega_p, fields.delta_p) \
        + 0.5 * (Vx + Vx.conj().T)
    return steady_state(build_liouvillian(H, build_collapse(scheme)))


def alpha_x_oracle(L, rho_ss, v_plus):
    """alpha_x / kappa: the exact omega_pr -> 0 response of the pump-only
    state rho_ss of the matrix L to the x probe V = ``v_plus`` at the pump
    frequency.

    The source x = -(i/2) [V + V^+, rho_ss] lies only in L's q = +-1
    blocks, where L is nonsingular whenever rho_ss is unique, so the
    first-order state is rho_1 = -L_b^-1 x_b.  It is solved block by block
    (blocks from scipy's connected components) on the blocks that hold the
    entries of V, the only ones the result -2 Im Tr[V^+ rho_1] reads.
    """
    d = rho_ss.shape[0]
    mu = v_plus + v_plus.conj().T
    x = (-0.5j * (mu @ rho_ss - rho_ss @ mu)).reshape(-1)
    count, labels = connected_components(L != 0, connection="weak")
    rho_1 = np.zeros_like(x)
    for k in range(count):
        b = np.flatnonzero(labels == k)
        if np.any(v_plus.reshape(-1)[b]):
            rho_1[b] = -np.linalg.solve(L[np.ix_(b, b)], x[b])
    return -2.0 * float(np.imag(np.trace(v_plus.conj().T
                                         @ rho_1.reshape(d, d))))


def density_matrix_defects(rho):
    """(hermiticity defect, trace defect, most negative eigenvalue)."""
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    tr = float(abs(np.trace(rho) - 1.0))
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return herm, tr, float(w[0])


def saturation_parameter(omega_p: float, delta_p: float) -> float:
    """S = omega_p^2 / (Gamma^2/4 + delta_p^2)."""
    return omega_p ** 2 / (0.25 + delta_p ** 2)


def commutator_correlation_oracle(L, rho_ss, d_plus, dt, t_window):
    """C(tau) = Tr[d- e^{L tau}(d+ rho_ss - rho_ss d+)] on tau = 0, dt, ...

    Sampled up to ``t_window`` by repeated application of expm(L dt).
    Returns (taus, c, (C'(0), C'(T))), the endpoint derivatives being those
    the corrected trapezoid of :func:`half_fourier_oracle` needs.
    """
    d = rho_ss.shape[0]
    d_minus = d_plus.conj().T
    n = int(round(t_window / dt)) + 1
    step = expm(L * dt)
    x = (d_plus @ rho_ss - rho_ss @ d_plus).reshape(-1)
    c = np.empty(n, dtype=complex)
    slopes = []
    for k in range(n):
        c[k] = np.trace(d_minus @ x.reshape(d, d))
        if k in (0, n - 1):
            slopes.append(np.trace(d_minus @ (L @ x).reshape(d, d)))
        x = step @ x
    return dt * np.arange(n), c, tuple(slopes)


def half_fourier_oracle(taus, c, omegas, slopes):
    """int_0^T e^{i omega tau} C(tau) dtau by the trapezoid rule with the
    Euler-Maclaurin endpoint correction -dt^2/12 (f'(T) - f'(0))."""
    dt = taus[1] - taus[0]
    omegas = np.asarray(omegas, dtype=float)
    weights = np.full(len(taus), dt)
    weights[0] = weights[-1] = 0.5 * dt
    phase = np.exp(1j * np.outer(omegas, taus))
    trapezoid = phase @ (weights * c)
    fp0 = 1j * omegas * c[0] + slopes[0]
    fpT = phase[:, -1] * (1j * omegas * c[-1] + slopes[1])
    return trapezoid - dt ** 2 / 12.0 * (fpT - fp0)


def weak_probe_oracle(L0, v_plus, deltas, n_harmonics, solver="sparse"):
    """-Im Tr[V+^H rho_1] per offset from the whole harmonic system.

    rho(t) = sum_{|m| <= n} rho_m e^{i m delta t} under the pump Liouvillian
    L0 (row-major vec) plus the probe H(t) = (V+ e^{i delta t} + h.c.)/2:
    rows (i m delta - L0) rho_m - L+ rho_{m-1} - L- rho_{m+1} = 0 for all m,
    A x = 0 with A of size (2n+1) d^2, plus Tr rho_0 = u . x = 1, u = vec 1
    on the rho_0 slot.  u spans the left null space of A (vec 1 . L0 =
    vec 1 . L+- = 0, and the m = 0 rows carry no i m delta term), so
    ``solver='sparse'`` solves the square saddle-point system
    [[A, u], [u^T, 0]] (x, 0) = (0, 1) with ``spsolve``; ``solver='lstsq'``
    solves the (2n+1) d^2 + 1 by (2n+1) d^2 bordered system
    [A; u^T] x = (0, 1) by dense least squares.  |delta| < 1e-6 is the
    mean over delta = +-1e-6, as the library does.
    """
    d = v_plus.shape[0]
    n = d * d
    eye = np.eye(d)

    def commutator(V):
        return sparse.csr_matrix(-0.5j * (np.kron(V, eye) - np.kron(eye, V.T)))

    l_plus, l_minus = commutator(v_plus), commutator(v_plus.conj().T)
    harmonics = range(-n_harmonics, n_harmonics + 1)
    nb, k0 = len(harmonics), n_harmonics
    u = np.zeros((1, nb * n))
    u[0, k0 * n:(k0 + 1) * n] = eye.reshape(-1)
    out = []
    for delta in deltas:
        if abs(delta) < 1e-6:  # the mean over +-1e-6, as the library does
            out.append(weak_probe_oracle(L0, v_plus, [-1e-6, 1e-6],
                                         n_harmonics, solver).mean())
            continue
        blocks = [[None] * nb for _ in harmonics]
        for k, m in enumerate(harmonics):
            blocks[k][k] = sparse.csr_matrix(1j * m * delta * np.eye(n) - L0)
            if k > 0:
                blocks[k][k - 1] = -l_plus
            if k + 1 < nb:
                blocks[k][k + 1] = -l_minus
        A = sparse.bmat(blocks)
        rhs = np.zeros(nb * n + 1, dtype=complex)
        rhs[-1] = 1.0
        if solver == "sparse":
            saddle = sparse.bmat([[A, u.T], [u, None]], format="csc")
            sol = spsolve(saddle, rhs)
        else:
            bordered = sparse.vstack([A, u]).toarray()
            sol = np.linalg.lstsq(bordered, rhs, rcond=None)[0]
        rho1 = sol[(k0 + 1) * n:(k0 + 2) * n].reshape(d, d)
        out.append(-np.imag(np.trace(v_plus.conj().T @ rho1)))
    return np.array(out)


def commutator_superoperator(V):
    """-i/2 [V, .] as a d^2 x d^2 matrix in row-major vec, from Kronecker
    products."""
    eye = np.eye(V.shape[0])
    return -0.5j * (np.kron(V, eye) - np.kron(eye, V.T))


def weak_probe_full_oracle(L0, v_plus, deltas, n_harmonics):
    """-Im Tr[V+^H rho_1] per offset, as ``weak_probe_oracle``, from the
    matrix continued fraction on the whole d^2 space.

    R_m = (i m delta - L0 - L- R_{m+1})^-1 L+ from R_{n+1} = 0 down to m = 1,
    rho_1 = R_1 rho_0 and rho_{-1} = rho_1^H; the rho_0 system has its first
    row (the (0, 0) population) replaced by the trace row.
    """
    d = v_plus.shape[0]
    n = d * d
    eye = np.eye(d)
    l_plus = commutator_superoperator(v_plus)
    l_minus = commutator_superoperator(v_plus.conj().T)
    perm = np.arange(n).reshape(d, d).T.ravel()  # vec X -> vec X^T
    unit = np.eye(n)[0]
    out = []
    for delta in deltas:
        if abs(delta) < 1e-6:  # the mean over +-1e-6, as the library does
            out.append(weak_probe_full_oracle(L0, v_plus, [-1e-6, 1e-6],
                                              n_harmonics).mean())
            continue
        back = np.zeros((n, n), dtype=complex)  # L- R_{m+1}
        for m in range(n_harmonics, 0, -1):
            R = np.linalg.solve(1j * m * delta * np.eye(n) - L0 - back,
                                l_plus)
            back = l_minus @ R
        central = -L0 - back - back.conj()[np.ix_(perm, perm)]
        central[0] = eye.reshape(-1)
        rho1 = (R @ np.linalg.solve(central, unit)).reshape(d, d)
        out.append(-np.imag(np.trace(v_plus.conj().T @ rho1)))
    return np.array(out)


def steady_state_oracle(L):
    """Null vector of the whole L from one SVD, with the definitions of
    ``steady_state``: singular values below 1e-10 of the largest span the
    null space, which must be one-dimensional."""
    d = int(round(np.sqrt(L.shape[0])))
    _, s, Vh = np.linalg.svd(L)
    nullity = max(1, int(np.sum(s <= 1e-10 * s[0])))
    assert nullity == 1, f"null space of dimension {nullity}"
    rho = Vh[-1].conj().reshape(d, d)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def block_null_vectors_oracle(L):
    """Right null vectors of L, one row each, from one full SVD per
    diagonal block: singular values below 1e-10 of the largest, and at
    least one, ranked by (value, block, position) and scattered into the
    full space."""
    count, labels = connected_components(L != 0, connection="weak")
    blocks = [np.flatnonzero(labels == k) for k in range(count)]
    parts = [np.linalg.svd(L[np.ix_(b, b)]) for b in blocks]
    ranked = sorted((sv, k, i) for k, (_, s, _) in enumerate(parts)
                    for i, sv in enumerate(s))
    nullity = max(1, sum(sv <= 1e-10 * ranked[-1][0] for sv, _, _ in ranked))
    vectors = np.zeros((nullity, len(L)), dtype=complex)
    for j, (_, k, i) in enumerate(ranked[:nullity]):
        vectors[j, blocks[k]] = parts[k][2][i].conj()
    return vectors


def steady_state_blocks_oracle(L):
    """``steady_state_oracle`` from ``block_null_vectors_oracle``."""
    d = int(round(np.sqrt(L.shape[0])))
    vectors = block_null_vectors_oracle(L)
    assert len(vectors) == 1, f"null space of dimension {len(vectors)}"
    rho = vectors[0].reshape(d, d)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    return rho


def weak_pump_limit(scheme):
    """Ground populations, m = -F_g ... F_g, as exact Fractions in the limit
    omega_p -> 0+: the null vector of the rate matrix of pi excitation
    followed by decay, R0[j, i] = b(e_i <- g_i) (b(e_i -> g_j) - delta_ij)
    with e_i the excited sublevel of g_i's m, from the branching ratios
    alone (every pi pair sees the same detuning, so the limit does not
    depend on it).  R0 is solved with its first row replaced by ones, the
    normalization, by Gaussian elimination in Fractions."""
    b = branching_ratios(scheme.F_g, scheme.F_e).entries  # (2 m_e, 2 m_g)
    tm = [round(2 * scheme.m_of(i)) for i in scheme.ground_indices]
    n = len(tm)
    rows = [[b.get((ti, ti), Fraction(0))
             * (b.get((ti, tj), Fraction(0)) - (i == j))
             for i, ti in enumerate(tm)] + [Fraction(0)]
            for j, tj in enumerate(tm)]
    rows[0] = [Fraction(1)] * (n + 1)
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for r in range(n):
            if r != k and rows[r][k] != 0:
                f = rows[r][k] / rows[k][k]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
    return [rows[k][n] / rows[k][k] for k in range(n)]


def steady_state_mp_oracle(L, scheme, dps=40):
    """Unique steady state of the pump-only L from its q = 0 block (found
    from the sublevels' m), the trace row in place of the first
    population's row, solved by Gaussian elimination with partial pivoting
    in ``dps``-digit mpmath and rounded to complex128."""
    import mpmath
    d = scheme.dim
    m = np.array([scheme.m_of(i) for i in range(d)])
    b = np.flatnonzero(np.subtract.outer(m, m).ravel() == 0)
    trace = [int(i // d == i % d) for i in b]
    n, first = len(b), trace.index(1)
    with mpmath.workdps(dps):
        rows = [[mpmath.mpc(complex(z)) for z in row]
                for row in L[np.ix_(b, b)]]
        rows[first] = [mpmath.mpc(t) for t in trace]
        for k, row in enumerate(rows):
            row.append(mpmath.mpc(int(k == first)))
        for k in range(n):
            p = max(range(k, n), key=lambda i: abs(rows[i][k]))
            rows[k], rows[p] = rows[p], rows[k]
            pivot = rows[k]
            for row in rows[k + 1:]:
                if row[k]:
                    f = row[k] / pivot[k]
                    row[k:] = [a - f * c if c else a
                               for a, c in zip(row[k:], pivot[k:])]
        x = [0] * n
        for k in reversed(range(n)):
            x[k] = (rows[k][n] - sum(rows[k][j] * x[j]
                                     for j in range(k + 1, n)
                                     if rows[k][j])) / rows[k][k]
        vec = np.zeros(d * d, dtype=complex)
        vec[b] = [complex(z) for z in x]
    return vec.reshape(d, d)


def regression_oracle(L, rho_ss, d_plus, deltas):
    """g(delta) = -Re w . (M - i delta)^-1 x0 with M = L + |rho_ss><vec 1|,
    from one Schur form of the whole M ordered damped-first and one
    ``solve_triangular`` per offset on the damped block."""
    d = rho_ss.shape[0]
    w = d_plus.conj().reshape(-1)  # w . vec X = Tr[d- X]
    x0 = (d_plus @ rho_ss - rho_ss @ d_plus).reshape(-1)
    M = L + np.outer(rho_ss.reshape(-1), np.eye(d).reshape(-1))
    thresh = -1e-10 * max(np.linalg.norm(M, 1), 1.0)
    T, Z, k = schur(M, output="complex", sort=lambda lam: lam.real < thresh)
    z = Z.conj().T @ x0
    assert np.linalg.norm(z[k:]) <= 1e-8 * np.linalg.norm(x0)
    T, u, z = T[:k, :k], w @ Z[:, :k], z[:k]
    return np.array([-np.real(u @ solve_triangular(
        T - 1j * delta * np.eye(k), z)) for delta in deltas])


def _fmt_oracle(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def table_csv_oracle(columns, rows, provenance) -> str:
    """CSV text of a table: provenance lines, names, units, then each row
    with every value formatted by its own type."""
    out = [f"# {key}: {val}\n" for key, val in provenance.items()]
    out.append(",".join(name for name, _ in columns) + "\n")
    out.append(",".join(f"[{unit}]" for _, unit in columns) + "\n")
    out += [",".join(_fmt_oracle(v) for v in row) + "\n" for row in rows]
    return "".join(out)


def table_json_oracle(columns, rows, provenance) -> str:
    """Line-delimited JSON text of a table: the provenance and units object,
    then one object per row of float(value) per column name."""
    names = [n for n, _ in columns]
    out = [json.dumps({"provenance": provenance,
                       "units": {n: u for n, u in columns}},
                      sort_keys=True) + "\n"]
    out += [json.dumps(dict(zip(names, (float(v) for v in row))),
                       sort_keys=True) + "\n" for row in rows]
    return "".join(out)
