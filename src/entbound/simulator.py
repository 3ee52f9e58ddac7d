"""Collective-spin state simulator in the Dicke basis.

Generates spin-squeezed states by one-axis twisting, computes their exact
moments through banded actions of J_x, J_y, J_z, propagates moments through
a binomial spatial split, and samples synthetic shot records.

No dense spin matrix is built. In the Dicke basis J_x is real symmetric
tridiagonal and J_y = D J_x D^dagger with D = diag(i^k), so one real
tridiagonal eigensolve per N serves rotations about x and projective
measurements along x and y, in O(N^2) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ValidationError
from .moments import BipartiteMomentData, MomentData, ShotRecord

NORM_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpinEnsembleState:
    """Pure state of N spin-1/2 particles in the symmetric (Dicke) sector.

    Amplitudes are ordered by descending J_z eigenvalue, m = N/2 .. -N/2.
    """

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if int(self.n_particles) != self.n_particles or self.n_particles < 1:
            raise ValidationError("n_particles must be a positive integer")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape[0] != self.n_particles + 1:
            raise ValidationError(
                f"expected {self.n_particles + 1} amplitudes, got {amps.shape[0]}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError(f"state norm {norm} deviates from 1 beyond {NORM_ATOL}")
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def jz_values(self) -> np.ndarray:
        return self.n_particles / 2 - np.arange(self.n_particles + 1)


@dataclass(frozen=True)
class SplitConfig:
    """Binomial split: each atom lands in region A with probability p."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValidationError(f"split probability must lie in (0,1), got {self.p}")


def css_x(n: int) -> SpinEnsembleState:
    """Coherent spin state along +x (every spin in (|1> + |2>)/sqrt(2))."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    k = np.arange(n + 1)
    # log-binomial keeps amplitudes finite for large N
    logc = [0.5 * (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)) for i in k]
    amps = np.exp(np.array(logc) - 0.5 * n * math.log(2.0)).astype(complex)
    amps /= np.linalg.norm(amps)
    return SpinEnsembleState(n, amps)


def oat_evolve(state: SpinEnsembleState, mu: float) -> SpinEnsembleState:
    """One-axis twisting exp(-i mu J_z^2), diagonal in the Dicke basis."""
    m = state.jz_values()
    return SpinEnsembleState(state.n_particles, np.exp(-1j * mu * m**2) * state.amplitudes)


@lru_cache(maxsize=32)
def _jx_eigensystem(n: int):
    """Ascending eigenvalues and real orthonormal eigenvectors of J_x.

    The Dicke-basis J_x has a zero diagonal and off-diagonal
    <m+1|J_x|m> = sqrt(j(j+1) - m(m+1))/2 = sqrt((k+1)(N-k))/2 for m = N/2-k-1.
    The cached arrays are read-only because every caller shares them.
    """
    k = np.arange(n, dtype=float)
    w, v = eigh_tridiagonal(
        np.zeros(n + 1), 0.5 * np.sqrt((k + 1) * (n - k)), lapack_driver="stevd"
    )
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _real_dot(mat: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """mat @ psi for a real mat and complex psi, without a complex copy of mat."""
    out = mat @ np.column_stack((psi.real, psi.imag))
    return out[:, 0] + 1j * out[:, 1]


# (-i)^k for k mod 4: D^dagger psi with D = diag(i^k) maps J_y onto J_x.
_MINUS_I_POWERS = np.array([1, -1j, -1, 1j])


def rotate_x(state: SpinEnsembleState, theta: float) -> SpinEnsembleState:
    """Rotation exp(-i theta J_x) about the mean-spin axis."""
    w, v = _jx_eigensystem(state.n_particles)
    amps = _real_dot(v, np.exp(-1j * theta * w) * _real_dot(v.T, state.amplitudes))
    amps /= np.linalg.norm(amps)
    return SpinEnsembleState(state.n_particles, amps)


def _apply_axis(state: SpinEnsembleState, axis: str) -> np.ndarray:
    """J_axis |state> via banded action (no matrix is materialized)."""
    n = state.n_particles
    j = n / 2
    m = state.jz_values()
    psi = state.amplitudes
    if axis == "z":
        return m * psi
    # (J_+ psi)_{i-1} = c_i psi_i with c_i = sqrt(j(j+1) - m_i(m_i + 1))
    c = np.sqrt(np.clip(j * (j + 1) - m * (m + 1), 0.0, None))
    up = np.zeros_like(psi)
    up[:-1] = c[1:] * psi[1:]
    # (J_- psi)_{i+1} = d_i psi_i with d_i = sqrt(j(j+1) - m_i(m_i - 1))
    d = np.sqrt(np.clip(j * (j + 1) - m * (m - 1), 0.0, None))
    down = np.zeros_like(psi)
    down[1:] = d[:-1] * psi[:-1]
    if axis == "x":
        return 0.5 * (up + down)
    if axis == "y":
        return -0.5j * (up - down)
    raise ValidationError(f"axis must be x, y or z, got {axis!r}")


def exact_raw_moments(state: SpinEnsembleState):
    """Means and symmetrized raw second moments <{J_a, J_b}>/2.

    Returns (mean, second) with shapes (3,) and (3,3); axis order x, y, z.
    """
    phis = [_apply_axis(state, a) for a in ("x", "y", "z")]
    mean = np.array([np.real(np.vdot(state.amplitudes, phi)) for phi in phis])
    second = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            second[a, b] = second[b, a] = np.real(np.vdot(phis[a], phis[b]))
    return mean, second


def exact_moments(state: SpinEnsembleState) -> MomentData:
    """Exact MomentData (full 3x3 symmetrized covariance) of a Dicke state."""
    mean, second = exact_raw_moments(state)
    cov = second - np.outer(mean, mean)
    return MomentData(float(state.n_particles), mean, cov)


def optimal_squeezing_rotation(state: SpinEnsembleState) -> float:
    """Angle theta in [0, pi) minimizing Var(J_z) after rotate_x(state, theta).

    The rotated variance is the pi-periodic quadratic form
    Var(cos(theta) J_z + sin(theta) J_y)
      = (Var_y + Var_z)/2 + (Var_z - Var_y)/2 cos(2 theta) + Cov_yz sin(2 theta),
    minimized where (cos 2theta, sin 2theta) points against
    ((Var_z - Var_y)/2, Cov_yz): the minor eigenvector of the (y, z) covariance.
    """
    mean, second = exact_raw_moments(state)
    cov = second - np.outer(mean, mean)
    var_y, var_z, cov_yz = cov[1, 1], cov[2, 2], cov[1, 2]
    return float((0.5 * math.atan2(-2.0 * cov_yz, var_y - var_z)) % math.pi)


def split_moments(
    parent: MomentData, raw_second: np.ndarray, cfg: SplitConfig
) -> BipartiteMomentData:
    """Propagate exact parent moments through a binomial A/B split.

    For symmetric states the regional operators J_a^A = sum_{i in A} j_a^(i)
    have moments fixed by the parent's single-particle part (N delta_ab / 4
    for symmetrized spin-1/2 moments) and pairwise part (parent symmetrized
    second moment minus the single-particle part):

        <J_a^A>            = p <J_a>
        <{J_a^A,J_b^A}>/2  = p^2 pair_ab + p single_ab
        <{J_a^A,J_b^B}>/2  = p(1-p) pair_ab

    Covariances include the shot-to-shot assignment randomness.
    """
    n = parent.n_particles
    if int(n) != n or n < 1:
        raise ValidationError("split propagation needs an integer particle number")
    raw_second = np.asarray(raw_second, dtype=float).reshape(3, 3)
    p = cfg.p
    q = 1.0 - p
    single = np.eye(3) * (n / 4.0)
    pair = raw_second - single
    mean = parent.mean

    mean_a = p * mean
    mean_b = q * mean
    second_aa = p * p * pair + p * single
    second_bb = q * q * pair + q * single
    second_ab = p * q * pair

    cov = np.zeros((6, 6))
    cov[:3, :3] = second_aa - np.outer(mean_a, mean_a)
    cov[3:, 3:] = second_bb - np.outer(mean_b, mean_b)
    cross = second_ab - np.outer(mean_a, mean_b)
    cov[:3, 3:] = cross
    cov[3:, :3] = cross.T
    return BipartiteMomentData(p * n, q * n, mean_a, mean_b, cov)


def split_state_moments(state: SpinEnsembleState, cfg: SplitConfig) -> BipartiteMomentData:
    """Convenience wrapper: binomial split moments of a simulator state."""
    mean, second = exact_raw_moments(state)
    cov = second - np.outer(mean, mean)
    parent = MomentData(float(state.n_particles), mean, cov)
    return split_moments(parent, second, cfg)


def _axis_distribution(state: SpinEnsembleState, axis: str):
    """Outcome values m and probabilities for a projective J_axis measurement."""
    n = state.n_particles
    if axis == "z":
        m = state.jz_values()
        probs = np.abs(state.amplitudes) ** 2
    else:
        w, v = _jx_eigensystem(n)
        m = np.round(2 * w) / 2
        psi = state.amplitudes
        if axis == "y":
            psi = _MINUS_I_POWERS[np.arange(n + 1) % 4] * psi
        probs = np.abs(_real_dot(v.T, psi)) ** 2
    probs = np.clip(probs, 0.0, None)
    return m, probs / probs.sum()


def _counts_from_value(total: float, j: float, rng, sigma: float) -> tuple[int, int]:
    # Round the total, then the population difference 2J to the nearest
    # integer of the total's parity: the mean total stays unbiased, and J
    # picks up about 1/12 of rounding variance.
    t = int(round(total))
    d = t + 2 * int(round((2 * j - t) / 2))
    n1 = (t + d) // 2
    n2 = (t - d) // 2
    if n2 < 0:
        n1, n2 = max(d, 0), 0
    elif n1 < 0:
        n1, n2 = 0, max(-d, 0)
    if sigma > 0:
        n1 = int(round(n1 + rng.normal(0.0, sigma)))
        n2 = int(round(n2 + rng.normal(0.0, sigma)))
    return max(0, n1), max(0, n2)


def sample_shots(
    source,
    settings=("x", "y", "z"),
    n_shots: int = 1000,
    seed: int = 0,
    detection_sigma: float = 0.0,
) -> list[ShotRecord]:
    """Sample synthetic shot records.

    For a SpinEnsembleState the sampling is exact projective measurement of
    the requested collective spin component. For MomentData or
    BipartiteMomentData a Gaussian approximation to the stored moments is
    used (bipartite shots are emitted as same-axis A/B pairs). Detection
    noise is additive Gaussian on each count, rounded and clipped at 0.
    Deterministic for a fixed seed.
    """
    if detection_sigma < 0:
        raise ValidationError("detection_sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    shots: list[ShotRecord] = []
    shot_id = 0

    if isinstance(source, SpinEnsembleState):
        n = source.n_particles
        for axis in settings:
            m, probs = _axis_distribution(source, axis)
            idx = rng.choice(len(probs), size=n_shots, p=probs)
            for i in idx:
                n1, n2 = _counts_from_value(n, m[i], rng, detection_sigma)
                shots.append(ShotRecord(shot_id, axis, "ALL", n1, n2))
                shot_id += 1
        return shots

    if isinstance(source, MomentData):
        for axis in settings:
            i = source.axis_index(axis)
            mu = source.mean_value(i)
            sd = math.sqrt(max(source.cov_value(i, i), 0.0))
            vals = rng.normal(mu, sd, size=n_shots) if sd > 0 else np.full(n_shots, mu)
            for v in vals:
                n1, n2 = _counts_from_value(source.n_particles, v, rng, detection_sigma)
                shots.append(ShotRecord(shot_id, axis, "ALL", n1, n2))
                shot_id += 1
        return shots

    if isinstance(source, BipartiteMomentData):
        for axis in settings:
            ia = source.axis_index(axis + "A")
            ib = source.axis_index(axis + "B")
            mu = np.array([source.mean_value(ia), source.mean_value(ib)])
            cov = np.array(
                [
                    [source.cov_value(ia, ia), source.cov_value(ia, ib)],
                    [source.cov_value(ia, ib), source.cov_value(ib, ib)],
                ]
            )
            vals = rng.multivariate_normal(mu, cov, size=n_shots, method="svd")
            for va, vb in vals:
                n1a, n2a = _counts_from_value(source.n_a, va, rng, detection_sigma)
                n1b, n2b = _counts_from_value(source.n_b, vb, rng, detection_sigma)
                shots.append(ShotRecord(shot_id, axis, "A", n1a, n2a))
                shots.append(ShotRecord(shot_id, axis, "B", n1b, n2b))
                shot_id += 1
        return shots

    raise ValidationError(f"cannot sample from object of type {type(source).__name__}")
