"""Dense Hermitian operator algebra for collective spins.

Collective spin components are built in the Dicke basis of the maximal-spin
sector (J = N/2, dimension N+1), ordered by descending J_z eigenvalue.
Ladder convention: <m+-1|J_+-|m> = sqrt(J(J+1) - m(m+-1)), which fixes
J_x = (J_+ + J_-)/2 and J_y = (J_+ - J_-)/(2i) and the standard algebra
[J_x, J_y] = i J_z (equivalently [J_z, J_y] = -i J_x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, ValidationError

HERMITICITY_ATOL = 1e-12

# Total dimension guard for tensor embeddings (oracle scale only).
TENSOR_DIM_GUARD = 4096

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense complex Hermitian matrix (spin operators in units hbar = 1)."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] < 1:
            raise DimensionError("operator dimension must be >= 1")
        asym = np.max(np.abs(entries - entries.conj().T))
        if asym > HERMITICITY_ATOL:
            raise ValidationError(
                f"matrix is not Hermitian: max |M - M^dag| = {asym:.3e} > {HERMITICITY_ATOL:.0e}"
            )
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralBounds:
    """Extreme eigenvalues of an operator; `exact` marks analytic values."""

    lambda_min: float
    lambda_max: float
    exact: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.lambda_min) and np.isfinite(self.lambda_max)):
            raise ValidationError("spectral bounds must be finite")
        if self.lambda_min > self.lambda_max:
            raise ValidationError(
                f"lambda_min = {self.lambda_min} exceeds lambda_max = {self.lambda_max}"
            )


@dataclass(frozen=True)
class DickeBasis:
    """Symmetric (maximal J = N/2) sector of N spin-1/2 particles."""

    n_particles: int

    def __post_init__(self):
        if int(self.n_particles) != self.n_particles or self.n_particles < 1:
            raise ValidationError("n_particles must be a positive integer")

    @property
    def dim(self) -> int:
        return self.n_particles + 1

    def jz_values(self) -> np.ndarray:
        """J_z eigenvalues in basis order (descending, m = N/2 .. -N/2)."""
        n = self.n_particles
        return n / 2 - np.arange(n + 1)


def _hermitize(matrix: np.ndarray) -> HermitianOperator:
    # For internally built products that are Hermitian up to rounding.
    sym = 0.5 * (matrix + matrix.conj().T)
    return HermitianOperator(sym)


def collective_spin(basis: DickeBasis | int, axis: str) -> HermitianOperator:
    """Collective spin component J_axis in the Dicke basis.

    Parameters
    ----------
    basis:
        DickeBasis (or plain particle number N).
    axis:
        One of "x", "y", "z".
    """
    if isinstance(basis, int):
        basis = DickeBasis(basis)
    if axis not in ("x", "y", "z"):
        raise ValidationError(f"axis must be x, y or z, got {axis!r}")
    m = basis.jz_values()
    if axis == "z":
        return HermitianOperator(np.diag(m).astype(complex))
    j = basis.n_particles / 2
    # J_+ raises m by one, i.e. moves one index up in descending order.
    c = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.diag(c, k=1).astype(complex)
    if axis == "x":
        return HermitianOperator(0.5 * (jp + jp.conj().T))
    return HermitianOperator(-0.5j * (jp - jp.conj().T))


def collective_spin_embedded(n_particles: int, axis: str) -> HermitianOperator:
    """Collective J_axis = sum_i sigma_axis^(i)/2 on the full 2^N qubit space."""
    dims = [2] * n_particles
    total = np.zeros((2**n_particles, 2**n_particles), dtype=complex)
    half_sigma = HermitianOperator(0.5 * _PAULI[axis])
    for site in range(n_particles):
        total = total + tensor_embed([half_sigma], [site], dims).entries
    return HermitianOperator(total)


def eigen_bounds(op: HermitianOperator) -> SpectralBounds:
    """Extreme eigenvalues via a dense symmetric eigensolve."""
    try:
        vals = np.linalg.eigvalsh(op.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigvalsh rarely fails
        raise ConvergenceError(f"eigensolver failed on a {op.dim}x{op.dim} operator: {exc}")
    return SpectralBounds(float(vals[0]), float(vals[-1]), exact=False)


def collective_spectral_bounds(n_particles: int, axis: str) -> SpectralBounds:
    """Analytic spectral bounds (-N/2, N/2) of any collective spin component."""
    if n_particles < 1:
        raise ValidationError("n_particles must be >= 1")
    if axis not in ("x", "y", "z"):
        raise ValidationError(f"axis must be x, y or z, got {axis!r}")
    half = n_particles / 2
    return SpectralBounds(-half, half, exact=True)


def tensor_embed(
    ops: list[HermitianOperator],
    sites: list[int],
    dims: list[int],
) -> HermitianOperator:
    """Embed local operators at given sites, identity elsewhere.

    Parameters
    ----------
    ops, sites:
        Parallel lists; ops[k] acts on sites[k].
    dims:
        Local dimension of every site.
    """
    if len(ops) != len(sites):
        raise DimensionError("ops and sites must have equal length")
    if len(set(sites)) != len(sites):
        raise DimensionError("site indices must be distinct")
    total_dim = int(np.prod(dims))
    if total_dim > TENSOR_DIM_GUARD:
        raise DimensionError(
            f"total dimension {total_dim} exceeds guard {TENSOR_DIM_GUARD}"
        )
    unknown = set(sites) - set(range(len(dims)))
    if unknown:
        raise DimensionError(f"site indices {sorted(unknown)} out of range")
    site_map = dict(zip(sites, ops))
    out = np.array([[1.0 + 0.0j]])
    for site, d in enumerate(dims):
        if site in site_map:
            op = site_map[site]
            if op.dim != d:
                raise DimensionError(
                    f"operator at site {site} has dim {op.dim}, expected {d}"
                )
            factor = op.entries
        else:
            factor = np.eye(d, dtype=complex)
        out = np.kron(out, factor)
    return HermitianOperator(out)


def partial_transpose(op: HermitianOperator, dims: tuple[int, int]) -> HermitianOperator:
    """Transpose on the second tensor factor of a bipartite operator."""
    da, db = dims
    if da * db != op.dim:
        raise DimensionError(f"dims {dims} do not factor dimension {op.dim}")
    return HermitianOperator(partial_transpose_array(op.entries, dims))


def partial_transpose_array(matrix: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """partial_transpose on a raw ndarray (no Hermiticity validation)."""
    da, db = dims
    return matrix.reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(da * db, da * db)


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """[A, B] as a raw (anti-Hermitian) matrix."""
    return a.entries @ b.entries - b.entries @ a.entries
