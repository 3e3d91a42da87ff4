"""Weak-probe absorption and gain spectra of the pumped atom.

Linear response of the driven, damped atom to a weak probe is obtained from
the two-time dipole correlation function via the quantum regression theorem:

    g(omega) = Re int_0^inf dtau e^{i omega tau} < [d-(tau), d+(0)] >,

with d+ the polarization-weighted raising operator.  The correlator evolves
the commutator state x0 = d+ rho_ss - rho_ss d+ under the same Liouvillian L
that generates the dynamics, so the half-Fourier integral is the resolvent
-w . (L - i omega)^-1 x0 on the trace-free subspace; it is evaluated from
complex Schur factorizations of L with its zero mode deflated, built once per
operating point; every regression spectrum the program computes comes from
them.  The algebra is block dense, as in :mod:`mirrorless.dynamics`: only
the diagonal blocks of L that both x0 and w occupy are factorized, and one
factorization serves each conjugate pair of them.  A Lindblad L maps rho^H
to L[rho]^H, so under the transpose (i, j) -> (j, i) of the vec indices the
block of coherence order -q is the complex conjugate of that of q: for the
perpendicular dipole the blocks q = +-1, one 20 x 20 Schur form on the
2 -> 3 line.  The spectra are reported against the pump-probe
frequency offset delta = omega_p - omega_pr (so delta = -omega relative to
the driving frame) and normalized so the undriven absorption Lorentzian
peaks at 1.  Positive values mean attenuation; negative values mean probe
gain.

Two more routes to the same response serve as cross-checks.  An eigenmode
resolvent (a sum of Lorentzians) is the reference of the benchmark and of
the tests; the program does not call it.  The explicit weak probe, whose
column the program writes beside every perpendicular regression spectrum,
solves the driven system including the probe at finite Rabi frequency and
reads the absorption off the probe-synchronous coherences, as in the
propagation-coefficient analysis.  Its harmonic balance in the offset
frequency is block tridiagonal; the sidebands are eliminated by a matrix
continued fraction (Risken, The Fokker-Planck Equation, ch. 9), the
negative ones by the symmetry rho_{-m} = rho_m^H,
leaving one square system for the mean state in which the trace condition
replaces a population row.  The probe moves the coherence order by +-1, so
harmonic rho_m has q = m (mod 2); the m -> -m reflection of the sublevels
keeps the pump Liouvillian and flips the sign of the probe, so rho_m also
has reflection parity (-1)^m.  Every solve of the elimination runs on that
half of one parity sector, about d^2 / 4 indices (38 or 36 of 144 on the
2 -> 3 line), built by index arithmetic on the sublevels' m.  Every route
takes the operating point its caller built and returns the spectrum in
units of the undriven peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import schur

from .dynamics import (DegenerateSteadyStateError, Liouvillian,
                       pump_only_steady_state, vectorize)
from .levels import (EXCITED, GROUND, LevelScheme, probe_raising,
                     pump_raising)


class CorrelationWindowError(RuntimeError):
    """Correlation never decays: ``achieved`` = weight on undamped modes."""

    def __init__(self, achieved: float):
        super().__init__(
            f"two-time correlation never decays: {achieved:.2e} of its "
            f"initial state lies on undamped modes")
        self.achieved = achieved


@dataclass(frozen=True)
class DipoleOperator:
    """Polarization-weighted raising operator sum d+ = sum_j (eps.mu_j) sigma_j+."""

    d_plus: np.ndarray
    polarization: str
    n_ground: int

    def __post_init__(self):
        if np.max(np.abs(self.d_plus)) == 0:
            raise ValueError("dipole operator is identically zero")

    @property
    def d_minus(self) -> np.ndarray:
        return self.d_plus.conj().T

    def peak_norm(self) -> float:
        """Undriven-atom peak of the absorption lineshape (Gamma = 1 units)."""
        return 2.0 * float(np.sum(np.abs(self.d_plus) ** 2)) / self.n_ground


def parallel_dipole(scheme: LevelScheme) -> DipoleOperator:
    """Probe polarized along the pump (pi transitions, Delta m = 0)."""
    return DipoleOperator(d_plus=pump_raising(scheme), polarization="parallel",
                          n_ground=len(scheme.ground_indices))


def perpendicular_dipole(scheme: LevelScheme) -> DipoleOperator:
    """Probe polarized orthogonally to the pump (Delta m = +-1)."""
    return DipoleOperator(d_plus=probe_raising(scheme),
                          polarization="perpendicular",
                          n_ground=len(scheme.ground_indices))


@dataclass(frozen=True)
class SpectrumResult:
    """Absorption spectrum on an offset grid, sign positive = attenuation."""

    delta: np.ndarray
    absorption: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.delta) <= 0):
            raise ValueError("offset grid must be strictly increasing")
        if not np.all(np.isfinite(self.absorption)):
            raise ValueError("absorption values must be finite")


def _trace_vector(op: np.ndarray) -> np.ndarray:
    # w such that w . vec(X) = Tr[op X] for row-major vec
    return vectorize(op.T)


# Undamped-mode test of correlation_spectrum: a mode decaying slower than
# 1e-10 |M|_1 would need ~1e10 lifetimes to decay and counts as undamped; the
# weight bound is the one resolvent_spectrum applies to the modes it drops.
_UNDAMPED_REL_TOL = 1e-10
_UNDAMPED_WEIGHT_TOL = 1e-8


def _shifted_back_substitution(T: np.ndarray, z: np.ndarray,
                               shifts: np.ndarray) -> np.ndarray:
    """Rows y_j solving (T + shifts_j) y_j = z_j, T upper triangular: one
    back substitution over all shifts at once."""
    k = len(T)
    y = np.empty(z.shape, dtype=complex)
    for i in range(k - 1, -1, -1):
        y[:, i] = (z[:, i] - y[:, i + 1:] @ T[i, i + 1:]) / (T[i, i] + shifts)
    return y


def _regression_engine(L: Liouvillian, rho_ss: np.ndarray,
                       d_op: DipoleOperator) -> Callable:
    """Factorize (see :func:`correlation_spectrum`); return delta_grid -> g."""
    w = _trace_vector(d_op.d_minus)
    x0 = vectorize(d_op.d_plus @ rho_ss - rho_ss @ d_op.d_plus)
    M = L.matrix + np.outer(vectorize(rho_ss), vectorize(np.eye(L.dim)))
    # M has L's blocks: |rho_ss><1| acts inside the one block that holds
    # every population, since each such block has its trace row as a left
    # null vector, and L's unique null vector rho_ss lies in it
    thresh = -_UNDAMPED_REL_TOL * max(np.linalg.norm(M, 1), 1.0)
    # L[rho^H] = L[rho]^H: on the vec indices turned by (i, j) -> (j, i),
    # a block's partner (coherence order -q for q) is its conjugate
    turned = np.arange(L.dim ** 2).reshape(L.dim, L.dim).T.ravel()
    label = np.empty(L.dim ** 2, dtype=int)
    for n, b in enumerate(L.blocks):
        label[b] = n
    # the blocks that both x0 and w occupy; every other block adds exactly
    # zero to w . (M - i delta)^-1 x0
    live = (np.bincount(label[x0 != 0], minlength=len(L.blocks)) > 0) \
        & (np.bincount(label[w != 0], minlength=len(L.blocks)) > 0)
    factors, undamped = [], 0.0
    for n, b in enumerate(L.blocks):
        if not live[n]:
            continue
        Mb = M[np.ix_(b, b)]
        T, Z, k = schur(Mb, output="complex",
                        sort=lambda lam: lam.real < thresh)
        Zh = Z.conj().T
        terms = [(w[b] @ Z[:, :k], Zh @ x0[b])]
        p = turned[b]
        m = label[p[0]]
        if m != n and live[m] and np.array_equal(np.sort(p), L.blocks[m]) \
                and np.array_equal(M[np.ix_(p, p)], Mb.conj()):
            # M_p = conj(Z T Z^H): the same T and damped split k serve the
            # partner, at the opposite shifts (see correlation_spectrum)
            live[m] = False
            terms.append((w[p].conj() @ Z[:, :k], Zh @ x0[p].conj()))
        for _, z in terms:
            undamped += float(np.linalg.norm(z[k:])) ** 2
        factors.append((T[:k, :k], [(u, z[:k]) for u, z in terms]))
    x_norm = float(np.linalg.norm(x0))
    weight = np.sqrt(undamped) / x_norm if x_norm else 0.0
    if weight > _UNDAMPED_WEIGHT_TOL:
        raise CorrelationWindowError(weight)

    def evaluate(delta_grid: np.ndarray) -> np.ndarray:
        shifts = -1j * np.asarray(delta_grid, dtype=float)
        n = len(shifts)
        g = np.zeros(n)
        for T, terms in factors:
            # the pair's second term takes the opposite shifts
            y = _shifted_back_substitution(
                T, np.repeat([z for _, z in terms], n, axis=0),
                np.concatenate([shifts, -shifts][:len(terms)]))
            for r, (u, _) in enumerate(terms):
                g -= np.real(y[r * n:(r + 1) * n] @ u)
        return g

    return evaluate


def correlation_spectrum(L: Liouvillian, rho_ss: np.ndarray,
                         d_op: DipoleOperator, delta_grid: Sequence[float]
                         ) -> SpectrumResult:
    """Absorption spectrum vs pump-probe offset via the regression theorem.

    The half-Fourier transform of C(tau) = w . e^{L tau} x0 is evaluated in
    the frequency domain, g(delta) = -Re w . (M - i delta)^-1 x0, with
    M = L + |rho_ss><vec 1| (the zero mode deflated to eigenvalue Tr rho_ss;
    M acts as L on the trace-free x0).  Each diagonal block of M that both
    x0 and w occupy is factorized once by a complex Schur decomposition
    ordered damped modes first (the other blocks add exactly zero), so the
    whole offset grid costs one back substitution per block on its damped
    part and no window or sampling error enters.  As L[rho^H] = L[rho]^H,
    a block whose transposed indices hold exactly its complex conjugate
    (coherence order -q against q) shares its partner's factors: with
    M_b = Z T Z^H the partner adds the conjugate of u' . (T + i delta)^-1 z',
    u' = conj(w_p) Z and z' = Z^H conj(x0_p), in the same back
    substitution with the opposite shifts.  If more than 1e-8 of
    x0's norm lies off the damped invariant subspaces (modes with
    Re lambda >= -1e-10 |M|_1) of those blocks, the correlation never
    decays and :class:`CorrelationWindowError` reports that relative weight.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    g = _regression_engine(L, rho_ss, d_op)(delta_grid)
    return SpectrumResult(delta=delta_grid, absorption=g / d_op.peak_norm())


def resolvent_spectrum(L: Liouvillian, rho_ss: np.ndarray,
                       d_op: DipoleOperator, delta_grid: Sequence[float]
                       ) -> SpectrumResult:
    """Same response evaluated exactly as a sum of Lorentzians.

    Diagonalizes the Liouvillian once; the half-Fourier transform of each
    eigenmode is analytic, so this route has no window or sampling error.
    The tests' independent reference for :func:`correlation_spectrum`; the
    program does not call it, as inverting the eigenvectors loses digits
    near an exceptional point of L.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    vals, vecs = np.linalg.eig(L.matrix)
    x0 = vectorize(d_op.d_plus @ rho_ss - rho_ss @ d_op.d_plus)
    amp = (_trace_vector(d_op.d_minus) @ vecs) * np.linalg.solve(vecs, x0)
    scale = float(np.max(np.abs(vals))) or 1.0
    live = np.abs(vals) > 1e-12 * scale
    weight = np.max(np.abs(amp[~live]), initial=0.0) \
        / max(np.max(np.abs(amp)), 1e-300)
    if weight > 1e-8:
        raise CorrelationWindowError(float(weight))
    vals, amp = vals[live], amp[live]
    g = np.empty(len(delta_grid))
    for i, delta in enumerate(delta_grid):
        g[i] = -np.real(np.sum(amp / (vals - 1j * delta)))
    return SpectrumResult(delta=delta_grid, absorption=g / d_op.peak_norm())


def _reflection(scheme: LevelScheme) -> Tuple[np.ndarray, np.ndarray]:
    """The m -> -m reflection S|F, m> = s |F, -m>, s = (-1)^(F - m) on the
    ground and -(-1)^(F - m) on the excited manifold, acting on density
    matrices as rho -> S rho S^H: vec index k goes to ``mirror[k]`` with
    the sign ``sign[k]`` (an involution: both are even under it)."""
    F = {GROUND: scheme.F_g, EXCITED: scheme.F_e}
    mirror = np.array([scheme.index(man, -m) for man, m in scheme.sublevels])
    s = np.array([(1 if man == GROUND else -1) * (-1) ** round(F[man] - m)
                  for man, m in scheme.sublevels])
    return np.add.outer(mirror * scheme.dim, mirror).ravel(), \
        np.outer(s, s).ravel()


def _commutator_rows(V: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ``rows`` of the superoperator -i/2 [V, .] in row-major vec:
    entry ((i, j), (k, l)) is -i/2 (V[i, k] delta_jl - delta_ik V[l, j])."""
    d, n = V.shape[0], len(rows)
    i, j = np.divmod(rows, d)
    out = np.zeros((n, d, d), dtype=complex)
    out[np.arange(n), :, j] = V[i]
    out[np.arange(n), i, :] -= V.T[j]
    return -0.5j * out.reshape(n, d * d)


def weak_probe_absorption(scheme: LevelScheme, L: Liouvillian,
                          omega_pr: float, delta_grid: Sequence[float],
                          n_harmonics: int = 2) -> SpectrumResult:
    """Explicit weak-probe absorption of the pump steady state of L.

    L is a pump Liouvillian with a unique steady state, as
    :func:`pump_only_steady_state` returns it.  An element of rho whose
    column of L is zero is stationary whatever the rest: more than one such
    column (the ground states of an undriven line, or the dark ones of a
    pumped F -> F-1 line) raises :class:`DegenerateSteadyStateError`
    carrying their count.  The probe enters the pump-frame master equation
    at finite Rabi frequency omega_pr through its +-i-phased couplings
    oscillating at the offset delta; the periodic steady state is solved by
    harmonic balance truncated at ``n_harmonics`` sidebands
    (nonperturbative in omega_pr up to that order).  The absorption is the
    coherence sum of the propagation analysis, i.e. the probe-synchronous
    part of sum_excited i [mu_x, rho]_ii, scaled per unit probe intensity
    so it is directly comparable with the regression-theorem spectrum.

    With rho(t) = sum_m rho_m e^{i m delta t} and L_+- = -i/2 [V_+-, .] the
    probe parts at e^{+-i delta t}, harmonic m obeys (i m delta - L0) rho_m
    - L_+ rho_{m-1} - L_- rho_{m+1} = 0.  The matrix continued fraction
    rho_m = R_m rho_{m-1}, R_{n+1} = 0, R_m = (i m delta - L0 - L_- R_{m+1})^-1
    L_+ eliminates m = n ... 1, and rho_{-m} = rho_m^H the negative side.
    The remaining rho_0 system, its (0, 0) population row replaced by the
    trace row, is square and nonsingular.  L0 keeps the coherence order
    q = m_i - m_j and L_+- move it by +-1, so rho_m has q = m (mod 2).  The
    m -> -m reflection rho -> S rho S^H (see :func:`_reflection`) commutes
    with L0 and flips the sign of L_+-, and the steady state is even under
    it, so rho_m also has reflection parity (-1)^m.  Each R_m is one solve
    on that half of its parity sector and the rho_0 system one on the even
    half, about d^2 / 4 indices (38 and 36 of 144 on the 2 -> 3 line):
    O(n d^6 / 64) per offset against O(n d^6) on the whole space.  An L0
    that couples an even to an odd q, or that the reflection changes, raises
    ValueError.

    An offset |delta| < 1e-6 is evaluated as the mean over delta = +-1e-6,
    which cancels the spectrum's slope there: the exactly degenerate static
    problem (pump and probe static in one rotating frame) additionally folds
    in the coherent four-wave-mixing partner of the probe and is a different
    observable.
    """
    if omega_pr <= 0 or n_harmonics < 1:
        raise ValueError("explicit weak-probe route requires omega_pr > 0 "
                         "and n_harmonics >= 1")
    delta_grid = np.asarray(delta_grid, dtype=float)
    d, L0 = scheme.dim, L.matrix
    m_sub = np.array([m for _, m in scheme.sublevels])
    odd_q = np.subtract.outer(m_sub, m_sub).ravel() % 2 == 1
    mirror, sign = _reflection(scheme)
    # an all-zero column of L0 is an element of rho that nothing moves
    r, c = np.nonzero(L0)
    idle = d * d - len(np.unique(c))
    if idle > 1:
        raise DegenerateSteadyStateError(idle)
    # on L0's nonzero entries: none joins an even to an odd q, and the
    # reflection maps each onto an entry of the same value times the signs,
    # so (being one to one) it maps L0 onto itself
    if np.any(odd_q[r] != odd_q[c]):
        raise ValueError("the pump Liouvillian couples even and odd "
                         "coherence orders")
    if not np.array_equal(L0[mirror[r], mirror[c]],
                          sign[r] * sign[c] * L0[r, c]):
        raise ValueError("the pump Liouvillian breaks the m -> -m "
                         "reflection")
    # sector p holds harmonics m = p (mod 2): q = p (mod 2) and reflection
    # parity eps = (-1)^p.  It keeps the lower index k of each pair
    # {k, mirror[k]} and each fixed point of sign eps; x[mirror[k]] =
    # eps sign[k] x[k] gives the rest, so the rows of an operator fold onto
    # the sector's columns.  L0 keeps each sector, L_+- swap them
    index = np.arange(d * d)
    sectors = []
    for p, eps in ((0, 1), (1, -1)):
        keep = np.flatnonzero((odd_q == p) & ((index < mirror) | (
            (index == mirror) & (sign == eps))))
        sectors.append((keep, np.where(mirror[keep] == keep, 0,
                                       eps * sign[keep])))

    def fold(rows, p):
        keep, coef = sectors[p]
        return rows[..., keep] + coef * rows[..., mirror[keep]]

    d_op = perpendicular_dipole(scheme)
    Vm = d_op.d_plus * omega_pr  # drive: H_pr(t) = (Vm e^{i delta t} + h.c.)/2
    L0_in = [fold(L0[keep], p) for p, (keep, _) in enumerate(sectors)]
    hop_in = [tuple(fold(_commutator_rows(V, keep), 1 - p)
                    for V in (Vm, Vm.conj().T))
              for p, (keep, _) in enumerate(sectors)]
    # P -> Pi conj(P) Pi, Pi: vec X -> vec X^T, maps X -> P[X] to
    # X -> P[X^H]^H; it turns L_- into L_+ and keeps the even sector, as it
    # sends q to -q and commutes with the reflection.  The transpose of a
    # kept index is kept or the mirror of one, so on the sector
    # (Pi x)[k] = flip_sign[k] x[flip[k]]
    even_keep = sectors[0][0]
    local = np.full(d * d, -1)
    local[even_keep] = np.arange(len(even_keep))
    turned = index.reshape(d, d).T.ravel()[even_keep]
    kept = local[turned] >= 0
    flip = np.where(kept, local[turned], local[mirror[turned]])
    flip_sign = np.where(kept, 1, sign[turned])
    flip, flip_sign = np.ix_(flip, flip), np.outer(flip_sign, flip_sign)
    trace_row = fold(vectorize(np.eye(d)), 0)
    unit = np.eye(len(even_keep))[0]  # vec index 0 is kept first
    w = fold(vectorize(Vm.conj()), 1)  # w . rho_1 = Tr[Vm^H rho_1]
    nh = int(n_harmonics)

    def point(delta):
        back = 0.0  # L_- R_{m+1}, on sector m
        for m in range(nh, 0, -1):
            A = -L0_in[m % 2] - back
            A[np.diag_indices_from(A)] += 1j * m * delta
            R = np.linalg.solve(A, hop_in[m % 2][0])
            back = hop_in[(m - 1) % 2][1] @ R
        # rho_{-1} = Pi conj(R_1) Pi rho_0, so L_+ rho_{-1} = Pi conj(back) Pi rho_0
        central = -L0_in[0] - back - flip_sign * back.conj()[flip]
        central[0] = trace_row
        return -np.imag(w @ (R @ np.linalg.solve(central, unit)))

    absorption = np.array([
        0.5 * (point(1e-6) + point(-1e-6)) if abs(delta) < 1e-6
        else point(delta) for delta in delta_grid])
    absorption *= 2.0 / (omega_pr ** 2 * d_op.peak_norm())
    return SpectrumResult(delta=delta_grid, absorption=absorption)


@dataclass(frozen=True)
class PerpendicularGain:
    """Perpendicular-probe absorption computed by two independent routes."""

    delta: np.ndarray
    absorption: np.ndarray          # route (a): regression spectrum
    weak_probe_absorption: np.ndarray  # route (b): explicit weak probe


def perpendicular_gain_spectrum(scheme: LevelScheme, fields,
                                delta_grid: Sequence[float],
                                n_harmonics: int = 2) -> PerpendicularGain:
    """Absorption of the orthogonally polarized probe vs offset delta.

    Route (a): regression-theorem spectrum of the pump-only steady state with
    the perpendicular dipole operator.  Route (b): explicit weak probe at
    omega_pr (default 1e-3 omega_p) solved in the driven system, absorption
    from the coherence sum.  Both arrays are returned for cross-validation;
    they agree within the probe's linear-response regime.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    omega_pr = fields.omega_pr if fields.omega_pr > 0 else 1e-3 * fields.omega_p
    rho_ss, L = pump_only_steady_state(scheme, fields.omega_p, fields.delta_p)
    reg = correlation_spectrum(L, rho_ss, perpendicular_dipole(scheme),
                               delta_grid)
    wp = weak_probe_absorption(scheme, L, omega_pr, delta_grid, n_harmonics)
    return PerpendicularGain(delta=delta_grid, absorption=reg.absorption,
                             weak_probe_absorption=wp.absorption)


@dataclass(frozen=True)
class MinAbsorptionPoint:
    omega_p: float
    min_absorption: float
    delta_at_min: float


@dataclass(frozen=True)
class MinAbsorptionScan:
    delta_p: float
    points: List[MinAbsorptionPoint]


# points of the local offset grid refining the coarse spectral minimum
_N_REFINE = 41
# values within this fraction of max |absorption| of the minimum tie
_TIE_REL_TOL = 1e-12


def _argmin_lowest(a: np.ndarray) -> int:
    """Index of the minimum; ties go to the first (lowest-delta) index."""
    return int(np.argmax(a <= a.min() + _TIE_REL_TOL * np.max(np.abs(a))))


def min_absorption_scan(scheme: LevelScheme, delta_p: float,
                        omega_p_grid: Sequence[float],
                        delta_grid: Optional[Sequence[float]] = None
                        ) -> MinAbsorptionScan:
    """Minimum of the perpendicular gain spectrum over delta, per pump Rabi.

    Each pump strength costs one steady state and one factorization of the
    regression spectrum (as in :func:`correlation_spectrum`), which serves
    both an offset grid wide enough to cover all dressed sidebands and a
    local grid refining the coarse minimum.  Minima equal to within 1e-12 of
    the spectrum's max |absorption| (the mirror-image edges of a resonantly
    pumped spectrum) resolve to the lowest delta.
    """
    points: List[MinAbsorptionPoint] = []
    wmax = float(np.max(np.abs(pump_raising(scheme))))
    d_op = perpendicular_dipole(scheme)
    norm = d_op.peak_norm()
    for omega_p in omega_p_grid:
        rho_ss, L = pump_only_steady_state(scheme, float(omega_p), delta_p)
        spectrum = _regression_engine(L, rho_ss, d_op)
        if delta_grid is None:
            span = np.sqrt((wmax * omega_p) ** 2 + delta_p ** 2) + abs(delta_p) + 8.0
            grid = np.linspace(-span, span, 321)
        else:
            grid = np.asarray(delta_grid, dtype=float)
        a = spectrum(grid) / norm
        i_min = _argmin_lowest(a)
        step = grid[1] - grid[0] if len(grid) > 1 else 1.0
        fine = np.linspace(grid[i_min] - 1.5 * step, grid[i_min] + 1.5 * step,
                           _N_REFINE)
        a_fine = spectrum(fine) / norm
        j = _argmin_lowest(a_fine)
        candidates = [(float(a[i_min]), float(grid[i_min])),
                      (float(a_fine[j]), float(fine[j]))]
        mn, at = min(candidates)
        points.append(MinAbsorptionPoint(omega_p=float(omega_p),
                                         min_absorption=mn, delta_at_min=at))
    return MinAbsorptionScan(delta_p=delta_p, points=points)

