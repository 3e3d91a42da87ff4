"""Lindblad dynamics: superoperator construction, evolution, steady states.

The master equation is
    drho/dt = -i [H, rho] - (Gamma/2) sum_k (s_k+ s_k- rho + rho s_k+ s_k-
                                             - 2 s_k- rho s_k+),
with the three decay channels of :class:`mirrorless.levels.CollapseChannels`.
Density matrices are vectorized row-major, vec(rho)[i*d + j] = rho[i, j], so
vec(A rho B) = (A kron B^T) vec(rho).

Dimensions here are small (d <= 12, superoperators <= 144x144), and the
algebra is block dense: the pi pump and the three decay channels conserve
the coherence order q = m_i - m_j, so the pump-only L is block diagonal
(for 2 -> 3 the largest block is 22 x 22).  A :class:`Liouvillian` finds
its blocks from its nonzero pattern, so no symmetry is assumed (a field
that mixes q merges them), and keeps them: no caller searches the pattern
again.  The pump-only state needs no decomposition of L: a scan over the
pump strength assembles L = A + omega_p B once per line and detuning, and
each pump strength eliminates the block of the populations onto the
ground populations, whose rate matrix (at most 7 x 7) also gives the
dimension of the null space.  The steady state of a general L is the one
null vector of one singular value decomposition per block, scattered
back into the full vector; a null space of higher dimension raises.
Time evolution samples a uniform grid, stepping with one exact
propagator e^{L dt} (scaling and squaring) of the whole L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from .levels import (CollapseChannels, LevelScheme, build_collapse,
                     pump_hamiltonian, pump_raising)


class DegenerateSteadyStateError(RuntimeError):
    """Raised when the Liouvillian null space, of dimension ``dimension``,
    is multi-dimensional: the steady state depends on the start."""

    def __init__(self, dimension: int):
        super().__init__(
            f"Liouvillian null space has dimension {dimension}; the steady "
            f"state is not unique (undriven or dark manifold)")
        self.dimension = dimension


@dataclass(frozen=True)
class Liouvillian:
    """Dense superoperator generating the Lindblad dynamics.  The matrix is
    not changed once built: its blocks are found at most once, on first
    use, unless the pump line set them."""

    matrix: np.ndarray  # (d*d, d*d) complex
    dim: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.matrix @ rho.reshape(-1)).reshape(self.dim, self.dim)

    @cached_property
    def blocks(self) -> Tuple[np.ndarray, ...]:
        """Index sets of the diagonal blocks, matrix[b, c] = 0 for distinct
        sets b, c: the connected components of the nonzero pattern, each
        ascending, ordered by their lowest index."""
        return _components(self.matrix != 0)


@dataclass(frozen=True)
class SaturationPoint:
    """Steady-state populations at one value of the saturation parameter."""

    S: float
    omega_p: float
    populations: np.ndarray
    inverted: bool  # rho(m_e=0) exceeds rho(m_g=+-1): see inversion_pair


@dataclass(frozen=True)
class InversionScan:
    """Result of a pump-only inversion scan over saturation parameters."""

    delta_p: float
    points: List[SaturationPoint]
    s_star: Optional[float]  # threshold where rho(m_e=0) crosses rho(|m_g|=1)


def omega_from_saturation(S: float, delta_p: float) -> float:
    """omega_p of the saturation parameter S = omega_p^2 / (Gamma^2/4 +
    delta_p^2) at fixed detuning."""
    if S < 0:
        raise ValueError("saturation parameter must be nonnegative")
    return np.sqrt(S * (0.25 + delta_p ** 2))


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).reshape(-1)


def unvectorize(vec: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(vec, dtype=complex).reshape(d, d)


def build_liouvillian(H: np.ndarray, channels: CollapseChannels) -> Liouvillian:
    """Assemble the dense generator L with drho/dt = L[rho].

    With the effective Hamiltonian K = H - (i/2) sum_k s_k^+ s_k (H
    Hermitian), L = -i K kron 1 + i 1 kron conj(K) + sum_k s_k kron conj(s_k).
    """
    H = np.asarray(H, dtype=complex)
    d = H.shape[0]
    if H.shape != (d, d):
        raise ValueError("Hamiltonian must be square")
    if any(s.shape != (d, d) for s in channels.sigmas):
        raise ValueError("collapse operator dimension mismatch")
    K = H - 0.5j * sum(s.conj().T @ s for s in channels.sigmas)
    eye = np.eye(d, dtype=complex)
    L = -1j * np.kron(K, eye) + 1j * np.kron(eye, K.conj())
    for s in channels.sigmas:
        L += np.kron(s, s.conj())
    return Liouvillian(matrix=L, dim=d)


def _components(pattern: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Index sets of the connected components of the square boolean
    ``pattern``, each ascending, ordered by their lowest index."""
    n = len(pattern)
    linked = pattern | pattern.T
    # every index takes the lowest label among its neighbours and then the
    # label of that label, until no label moves: each block ends labelled
    # by its lowest index
    labels = np.arange(n)
    while True:
        lower = np.minimum(labels, np.where(linked, labels, n).min(axis=1))
        if np.array_equal(lower, labels):
            break
        labels = lower[lower]
    return tuple(np.flatnonzero(labels == root) for root in np.unique(labels))


def equal_ground_state(scheme: LevelScheme) -> np.ndarray:
    """Population distributed equally over the ground sublevels (default rho0)."""
    rho = np.zeros((scheme.dim, scheme.dim), dtype=complex)
    g = scheme.ground_indices
    for i in g:
        rho[i, i] = 1.0 / len(g)
    return rho


@dataclass(frozen=True)
class Evolution:
    """Sampled trajectory rho(t)."""

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d)


def evolve(L: Liouvillian, rho0: np.ndarray, t_final: float,
           n_samples: int = 201) -> Evolution:
    """Propagate rho0 under L, sampled at ``n_samples`` uniform times on
    [0, t_final].

    Each sample is the previous one times the exact propagator e^{L dt} of
    one grid step, a single matrix exponential; RuntimeError if that
    propagator is not finite (its squarings overflow when |L| dt is
    extreme).  Every sample is re-Hermitized, the only invariant repair;
    trace drift is left observable as a diagnostic.
    """
    d = L.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise ValueError("initial state dimension mismatch")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        step = expm(L.matrix * (t_final / (n_samples - 1)))
    if not np.all(np.isfinite(step)):
        raise RuntimeError("the one-step propagator e^{L dt} is not finite: "
                           "|L| dt is too large for double precision")
    states = np.empty((n_samples, d, d), dtype=complex)
    states[0] = rho0
    for k in range(1, n_samples):
        rho = (step @ states[k - 1].reshape(-1)).reshape(d, d)
        states[k] = 0.5 * (rho + rho.conj().T)
    return Evolution(times=np.linspace(0.0, t_final, n_samples),
                     states=states)


# singular values below _NULL_REL_TOL * sigma_max span the null space; a
# steady state whose residual max |L rho| exceeds _RESIDUAL_TOL is rejected
_NULL_REL_TOL = 1e-10
_RESIDUAL_TOL = 1e-8


def steady_state(L: Liouvillian) -> np.ndarray:
    """Solve L[rho] = 0 with Tr rho = 1 from the SVD L = U S V^H.

    L is block diagonal (see :attr:`Liouvillian.blocks`), so its SVD is
    the union of one SVD per block, taken on each call.  Its singular
    values below 1e-10 of the largest (the smallest one always counts)
    span the null space; a dimension above 1 raises
    :class:`DegenerateSteadyStateError`.  The state is the last right
    singular vector of the block whose last singular value is smallest.
    """
    parts = [np.linalg.svd(L.matrix[np.ix_(b, b)]) for b in L.blocks]
    last = [float(s[-1]) for _, s, _ in parts]
    scale = max(float(s[0]) for _, s, _ in parts) or 1.0
    thresh = max(_NULL_REL_TOL * scale, min(last))
    nullity = sum(int(np.count_nonzero(s <= thresh)) for _, s, _ in parts)
    if nullity > 1:
        raise DegenerateSteadyStateError(nullity)
    k = int(np.argmin(last))
    vec = np.zeros(L.dim * L.dim, dtype=complex)
    vec[L.blocks[k]] = parts[k][2][-1].conj()
    # the SVD fixes no phase: divide by the complex trace first
    rho = unvectorize(vec, L.dim)
    return _checked(L, rho / np.trace(rho))


def _checked(L: Liouvillian, rho: np.ndarray) -> np.ndarray:
    """rho Hermitized and normalized to unit trace; RuntimeError if its
    residual max |L rho| exceeds ``_RESIDUAL_TOL``."""
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    residual = float(np.max(np.abs(L.apply(rho))))
    if residual > _RESIDUAL_TOL:
        raise RuntimeError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}")
    return rho


@dataclass(frozen=True)
class _PumpLine:
    """The pump-only Liouvillian of one line at one pump detuning,
    L(omega_p) = A + omega_p B, and the block of A and of B that
    eliminates the populations onto the ground populations.

    A holds the detuning and the decay, B the pi-pump commutator at unit
    Rabi frequency; no entry is in both.  ``blocks`` (as of
    :class:`Liouvillian`) are those of their joint pattern.  ``P`` are the
    vec indices of the ground populations and ``Q`` the rest of the blocks
    that hold them; ``A_block`` and ``B_block`` are A and B on those
    indices, Q first, then P.  L has no P -> P entry (a ground population
    changes only through the excited states and the optical coherences),
    so L_QQ, L_QP and L_PQ, read off A_block + omega_p B_block, are all of
    L that a pump-only steady state needs.  Every array is read-only.
    """

    dim: int
    A: np.ndarray
    B: np.ndarray
    blocks: Tuple[np.ndarray, ...]
    P: np.ndarray
    Q: np.ndarray
    A_block: np.ndarray
    B_block: np.ndarray

    def liouvillian(self, omega_p: float) -> Liouvillian:
        """L at ``omega_p``, already holding the line's blocks."""
        L = Liouvillian(matrix=self.A + omega_p * self.B, dim=self.dim)
        # fill L's memo: the joint pattern's blocks are L's own for
        # omega_p != 0, and still split L at omega_p = 0
        vars(L)["blocks"] = self.blocks
        return L


@lru_cache(maxsize=16)
def _pump_line(scheme: LevelScheme, delta_p: float) -> _PumpLine:
    """Memoized :class:`_PumpLine`, split from one assembly at omega_p = 1.

    The pump entries -+(i/2) omega_p w of L are products of omega_p with
    factors that are exact in binary, so omega_p B equals them bit for bit
    and A + omega_p B is the assembled L itself."""
    L = build_liouvillian(pump_hamiltonian(scheme, 1.0, delta_p),
                          build_collapse(scheme))
    coupled = pump_raising(scheme) != 0
    coupled |= coupled.T
    eye = np.eye(scheme.dim, dtype=bool)
    pumped = np.kron(coupled, eye) | np.kron(eye, coupled)
    A, B = np.where(pumped, 0.0, L.matrix), np.where(pumped, L.matrix, 0.0)
    P = np.array(scheme.ground_indices) * (scheme.dim + 1)
    in_P = np.zeros(scheme.dim ** 2, dtype=bool)
    in_P[P] = True
    Q = np.setdiff1d(np.concatenate([b for b in L.blocks if in_P[b].any()]),
                     P)
    QP = np.concatenate([Q, P])
    block = np.ix_(QP, QP)
    line = _PumpLine(dim=scheme.dim, A=A, B=B, blocks=L.blocks, P=P, Q=Q,
                     A_block=A[block], B_block=B[block])
    for a in (*(v for v in vars(line).values() if isinstance(v, np.ndarray)),
              *line.blocks):
        a.flags.writeable = False
    return line


def pump_only_steady_state(scheme: LevelScheme, omega_p: float, delta_p: float
                           ) -> Tuple[np.ndarray, Liouvillian]:
    """Steady state of the pump-only system, with its Liouvillian.

    The Liouvillian is assembled once per line and detuning (see
    :class:`_PumpLine`).  The state is exact elimination onto the ground
    populations P, with Q the rest of their block: X = L_QQ^-1 L_QP, and
    R = -L_PQ X, the ground rate matrix of optical pumping (Happer, Rev.
    Mod. Phys. 44, 169 (1972)), holds the ground populations rho_P as its
    null vector; rho_Q = -X rho_P, and every other block is zero.  R's
    nullity k is counted by the rule of :func:`steady_state` on R's
    singular values, which stay apart however weak the pump.  A k above 1
    (a dark or an undriven line) raises :class:`DegenerateSteadyStateError`
    of dimension k^2: the null space of L is then the density matrices on
    the k dark ground states.  Otherwise rho_P solves R with one row
    replaced by the normalization.  The state is Hermitized, normalized
    and checked as in :func:`steady_state`."""
    line = _pump_line(scheme, float(delta_p))
    L = line.liouvillian(omega_p)
    n = len(line.Q)
    M = line.A_block + omega_p * line.B_block
    X = np.linalg.solve(M[:n, :n], M[:n, n:])
    R = -M[n:, :n] @ X
    s = np.linalg.svd(R, compute_uv=False)
    k = int(np.count_nonzero(s <= max(_NULL_REL_TOL * s[0], s[-1])))
    if k > 1:
        raise DegenerateSteadyStateError(k * k)
    # the columns of R sum to zero (pumping conserves the population), so
    # its first row may state sum(rho_P) = 1 instead
    R[0] = 1.0
    vec = np.zeros(L.dim * L.dim, dtype=complex)
    vec[line.P] = np.linalg.solve(R, np.eye(len(R))[0])
    vec[line.Q] = -X @ vec[line.P]
    return _checked(L, unvectorize(vec, L.dim)), L


# relative accuracy of the bisected inversion threshold S*
_BISECT_REL_TOL = 1e-3


def inversion_pair(scheme: LevelScheme) -> Tuple[int, List[int]]:
    """Indices of the sublevels the inversion criterion compares: excited
    m = 0 and ground m = -1, +1, the sublevels of the paper's 1 -> 2
    inversion.

    Raises ValueError naming the line if it lacks them: a half-integer F has
    no integer m, and F_g = 0 has no ground m = +-1.
    """
    pair = [("excited", 0.0), ("ground", -1.0), ("ground", 1.0)]
    if not all(key in scheme.index_map for key in pair):
        raise ValueError(
            f"the F_g = {scheme.F_g:g} -> F_e = {scheme.F_e:g} line has no "
            f"inversion pair (excited m = 0 against ground m = +-1)")
    e0, *g_side = (scheme.index(*key) for key in pair)
    return e0, g_side


def inversion_scan(scheme: LevelScheme, delta_p: float,
                   s_grid: Sequence[float]) -> InversionScan:
    """Steady-state populations over a saturation-parameter grid.

    Each point records whether the population of (excited, m=0) exceeds
    that of (ground, |m|=1) (see :func:`inversion_pair`, whose ValueError a
    line without those sublevels raises).  Also locates the threshold S*
    where they cross, by bisection between the bracketing grid points to
    1e-3 relative accuracy.
    """
    e0, g_side = inversion_pair(scheme)

    def gap(S: float) -> Tuple[float, np.ndarray]:
        omega = omega_from_saturation(S, delta_p)
        rho, _ = pump_only_steady_state(scheme, omega, delta_p)
        pops = np.real(np.diag(rho))
        return float(pops[e0] - max(pops[i] for i in g_side)), pops

    points: List[SaturationPoint] = []
    gaps: List[float] = []
    for S in s_grid:
        g, pops = gap(float(S))
        gaps.append(g)
        points.append(SaturationPoint(
            S=float(S), omega_p=omega_from_saturation(S, delta_p),
            populations=pops, inverted=g > 0.0))

    s_star = None
    for i in range(len(gaps) - 1):
        if gaps[i] < 0.0 <= gaps[i + 1]:
            lo, hi = float(s_grid[i]), float(s_grid[i + 1])
            while (hi - lo) > _BISECT_REL_TOL * hi:
                mid = 0.5 * (lo + hi)
                if gap(mid)[0] < 0.0:
                    lo = mid
                else:
                    hi = mid
            s_star = 0.5 * (lo + hi)
            break
    return InversionScan(delta_p=delta_p, points=points, s_star=s_star)
