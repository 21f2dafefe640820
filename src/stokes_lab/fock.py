"""Exact Stokes-operator matrices and SU(2) transformations on photon-number manifolds.

The N-photon manifold of two polarization modes is spanned by the basis
|N-k, k> (horizontal count, vertical count) for k = 0..N, ordered by
decreasing horizontal occupation so that the photon-number-difference
operator is diagonal with descending eigenvalues N, N-2, ..., -N.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

DEFAULT_MANIFOLD_CAP = 32
UNIT_NORM_TOL = 1e-12

_CAP_ENV_VAR = "STOKES_LAB_NMAX"


def manifold_cap() -> int:
    """Largest accepted total photon number (env STOKES_LAB_NMAX overrides)."""
    raw = os.environ.get(_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_MANIFOLD_CAP
    if not raw.strip().isdecimal():
        raise ValueError(f"{_CAP_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return int(raw)


def check_manifold(n_photons: int) -> int:
    """Validate a manifold label against the overflow guard; returns it as int.

    Python and numpy integers pass; bool and float do not, even 2.0, so a
    label is an int wherever a state keeps it.
    """
    if isinstance(n_photons, bool) or not isinstance(n_photons, (int, np.integer)) or n_photons < 0:
        raise ValueError(f"photon number must be a non-negative integer, got {n_photons!r}")
    n = int(n_photons)
    cap = manifold_cap()
    if n > cap:
        raise ValueError(
            f"manifold {n} exceeds the cap {cap}; raise {_CAP_ENV_VAR} to override"
        )
    return n


class EulerAngles(NamedTuple):
    """Euler angles (phi, theta, xi) of a two-mode linear-optics transformation."""

    phi: float
    theta: float
    xi: float


@dataclass(frozen=True)
class Direction:
    """Unit vector on the polarization sphere.

    The norm must be 1 within 1e-12; use from_vector(..., normalize=True)
    to build one from unnormalized data.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"direction components must be finite, got {(self.x, self.y, self.z)!r}")
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"direction must be a unit vector, got norm {norm!r}")

    @classmethod
    def from_vector(cls, vec, normalize: bool = False) -> "Direction":
        try:
            v = np.asarray(vec, dtype=float)
        except OverflowError as exc:
            raise ValueError(f"direction components must be finite: {exc}") from exc
        if v.shape != (3,):
            raise ValueError(f"direction needs 3 components, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError(f"direction components must be finite, got {tuple(v.tolist())!r}")
        if normalize:
            norm = np.linalg.norm(v)
            if norm == 0.0:
                raise ValueError("cannot normalize the zero vector")
            v = v / norm
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def from_spherical(cls, theta: float, phi: float) -> "Direction":
        """Polar angle theta from the z-axis, azimuth phi in the xy-plane."""
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def spherical(self) -> tuple[float, float]:
        """(theta, phi) with theta = arccos(z)."""
        return math.acos(min(1.0, max(-1.0, self.z))), math.atan2(self.y, self.x)


def as_direction(n) -> Direction:
    """Coerce a Direction or 3-vector (validated, not normalized) to Direction."""
    if isinstance(n, Direction):
        return n
    return Direction.from_vector(n)


@lru_cache(maxsize=None)
def _stokes_cached(index: int, n_photons: int) -> np.ndarray:
    dim = n_photons + 1
    op = np.zeros((dim, dim), dtype=complex)
    if index == 0:
        np.fill_diagonal(op, float(n_photons))
    elif index == 3:
        for k in range(dim):
            op[k, k] = n_photons - 2 * k
    else:
        # Two-mode ladder action restricted to the manifold:
        # a_H a_V^dag |N-k,k> = sqrt((N-k)(k+1)) |N-k-1,k+1>
        # a_H^dag a_V |N-k,k> = sqrt((N-k+1)k)   |N-k+1,k-1>
        for k in range(dim):
            if k + 1 <= n_photons:
                amp = math.sqrt((n_photons - k) * (k + 1))
                op[k + 1, k] = amp if index == 1 else 1j * amp
            if k >= 1:
                amp = math.sqrt((n_photons - k + 1) * k)
                op[k - 1, k] = amp if index == 1 else -1j * amp
    op.setflags(write=False)
    return op


def stokes_operator(index: int, n_photons: int) -> np.ndarray:
    """Matrix of the Stokes operator with the given index (0..3) on one manifold.

    Index 0 is the total photon number, 3 the photon-number difference,
    1 and 2 the mode-exchange quadratures.  The returned array is a cached
    read-only view.
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"Stokes index must be 0..3, got {index}")
    return _stokes_cached(index, check_manifold(n_photons))


def stokes_vector_operators(n_photons: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three generators (indices 1, 2, 3) on one manifold."""
    return tuple(stokes_operator(j, n_photons) for j in (1, 2, 3))


def stokes_in_direction(n, n_photons: int) -> np.ndarray:
    """n . S restricted to one manifold; spectrum is {N-2k : k=0..N}."""
    d = as_direction(n)
    s1, s2, s3 = stokes_vector_operators(n_photons)
    return d.x * s1 + d.y * s2 + d.z * s3


def rotated_fock_bases(lines, n_max: int) -> list[np.ndarray]:
    """Eigenbases of d . S along each line d, on the manifolds 0..n_max, built without diagonalizing.

    Entry N stacks one unitary per line, shape (len(lines), N+1, N+1); its
    column k is the Fock state |N-k, k> carried by the rotation that takes
    the z-axis onto d, i.e. the eigenvector of d . S with eigenvalue exactly
    N-2k.  The single-photon rotation has columns (c, e^{i phi} s) and
    (-e^{-i phi} s, c) with c = sqrt((1+z)/2), s = sqrt((1-z)/2) and
    e^{i phi} the phase of x+iy.  Along +-z every basis is a signed
    permutation with exact zeros, so no spurious outcomes appear there.  All
    lines go through one multiphoton_actions call, and a line's basis does
    not depend on the other lines of the batch; pass a one-tuple for one line.
    """
    n_max = check_manifold(n_max)
    coefficients = []
    for line in lines:
        d = as_direction(line)
        c = math.sqrt(max(0.0, (1.0 + d.z) / 2.0))
        s = math.sqrt(max(0.0, (1.0 - d.z) / 2.0))
        rho = math.hypot(d.x, d.y)
        phase = complex(d.x, d.y) / rho if rho > 0.0 else 1.0
        coefficients.append((c, phase * s, -phase.conjugate() * s, c))
    hh, vh, hv, vv = np.array(coefficients, dtype=complex).reshape(-1, 4).T
    return multiphoton_actions(hh, vh, hv, vv, n_max)


def multiphoton_actions(hh, vh, hv, vv, n_max: int) -> list[np.ndarray]:
    """Matrices of a single-photon map on the manifolds 0..n_max.

    The map sends |H> to hh|H> + vh|V> and |V> to hv|H> + vv|V>; entry N
    is its action on the N-photon manifold in the |N-k, k> basis.  Scalar
    coefficients give entries of shape (N+1, N+1); coefficients with a
    leading axis of length M give M maps at once, entries (M, N+1, N+1).
    Manifold N follows from N-1 by splitting one photon off both the row
    and the column Fock state.  For a unitary map each step is a
    contraction, so rounding errors add up instead of growing from level
    to level.
    """
    hh, vh, hv, vv = (np.asarray(coef, dtype=complex)[..., None, None] for coef in (hh, vh, hv, vv))
    lead = np.broadcast_shapes(hh.shape, vh.shape, hv.shape, vv.shape)[:-2]
    roots = np.sqrt(np.arange(n_max + 1, dtype=float))
    levels = [np.ones(lead + (1, 1), dtype=complex)]
    for n_photons in range(1, n_max + 1):
        # |N-k,k> = sqrt((N-k)/N) |H>|N-1-k,k> + sqrt(k/N) |V>|N-k,k-1>:
        # split the column state first, then the row state
        h = roots[n_photons::-1]
        v = roots[: n_photons + 1]
        padded = np.zeros(lead + (n_photons, n_photons + 2), dtype=complex)
        padded[..., 1:-1] = levels[-1]
        from_h = padded[..., 1:] * h
        from_v = padded[..., :-1] * v
        level = np.zeros(lead + (n_photons + 1, n_photons + 1), dtype=complex)
        level[..., :-1, :] = h[:-1, None] * (hh * from_h + hv * from_v)
        level[..., 1:, :] += v[1:, None] * (vh * from_h + vv * from_v)
        levels.append(level / n_photons)
    return levels


def su2_unitary(angles, n_photons: int) -> np.ndarray:
    """Linear-optics unitary exp(-i phi S3/2) exp(-i theta S2/2) exp(-i xi S3/2).

    It is the N-photon action of the same product of 2x2 matrices on one
    photon, so it needs no diagonalization.
    """
    phi, theta, xi = angles
    n = check_manifold(n_photons)
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    left = np.diag([cmath.exp(-0.5j * phi), cmath.exp(0.5j * phi)])
    right = np.diag([cmath.exp(-0.5j * xi), cmath.exp(0.5j * xi)])
    u = left @ np.array([[c, -s], [s, c]]) @ right
    return multiphoton_actions(u[0, 0], u[1, 0], u[0, 1], u[1, 1], n)[n]


def rotation_matrix(axis: int, angle: float) -> np.ndarray:
    """Proper rotation by angle around coordinate axis 1, 2 or 3."""
    c, s = math.cos(angle), math.sin(angle)
    if axis == 1:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == 2:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == 3:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"rotation axis must be 1, 2 or 3, got {axis}")


def euler_rotation_matrix(angles) -> np.ndarray:
    """R3(phi) R2(theta) R3(xi): the sphere rotation induced by su2_unitary."""
    phi, theta, xi = angles
    return rotation_matrix(3, phi) @ rotation_matrix(2, theta) @ rotation_matrix(3, xi)


def direction_from_euler(angles) -> Direction:
    """Image of the z-axis under the Euler rotation: where S3 is carried."""
    phi, theta, _ = angles
    return Direction.from_spherical(theta, phi)


def conjugate_stokes(angles, n, n_photons: int) -> np.ndarray:
    """U S_n U^dag, equal to the Stokes operator along the rotated direction."""
    u = su2_unitary(angles, n_photons)
    return u @ stokes_in_direction(n, n_photons) @ u.conj().T


def rotated_direction(angles, n) -> Direction:
    """The direction R3(phi) R2(theta) R3(xi) n."""
    v = euler_rotation_matrix(angles) @ as_direction(n).as_array()
    return Direction.from_vector(v, normalize=True)
