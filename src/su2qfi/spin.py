"""Finite-dimensional spin operators and Hermitian-matrix utilities.

All matrices are dense complex ndarrays in the eigenbasis of the z
generator, with basis states ordered by descending magnetic quantum number
m = j, j-1, ..., -j.  Spin labels are carried internally as the integer 2j
so half-integer spins never live in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_SPIN",
    "SpinRep",
    "build_spin_rep",
    "twice_spin",
    "dot_with_J",
    "hermitian_expm",
    "su2_lift",
    "frobenius",
    "row_dot",
    "reject_first",
    "require_hermitian",
]

# Dimension guard: dim = 2j+1 <= 101 keeps dense eigendecompositions cheap.
MAX_SPIN = 50


def row_dot(a, b):
    """Dot products over the last axis, each through the BLAS ``ddot`` of a 1-D ``a @ b``.

    An elementwise sum or ``einsum`` adds in another order, so only this
    form gives every row the bits of a per-row call (strides included).
    """
    return np.matmul(np.asarray(a)[..., None, :], np.asarray(b)[..., :, None])[..., 0, 0]


def frobenius(matrix):
    """Frobenius norm: a float for one matrix, an array of norms for a stack (..., n, n).

    A stack gives each matrix the bits of ``np.linalg.norm`` on it alone.
    """
    m = np.asarray(matrix)
    if m.ndim <= 2:
        return float(np.linalg.norm(m))
    flat = m.reshape(m.shape[:-2] + (-1,))
    parts = (flat.real, flat.imag) if np.iscomplexobj(flat) else (flat,)
    return np.sqrt(sum(row_dot(part, part) for part in parts))


def reject_first(bad, message, error=ValueError) -> None:
    """Raise error(message(k)) for the first flagged row k, in row order.

    ``bad`` is one flag for a single matrix (k is then ``()``), or flags
    whose first axis runs over the rows of a stack; further axes are
    reduced with any.  The error of a stack carries ``row = k``, so a
    caller holding a slice of a larger grid can name the row in its own terms.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    if bad.ndim == 0:
        raise error(message(()))
    k = int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))
    err = error(message(k))
    err.row = k
    raise err


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Validate that ``matrix`` is square and Hermitian, return it as complex ndarray.

    The deviation max|M - M^dag| is compared against 1e-10 times the
    largest matrix element (with a floor of 1 so the zero matrix passes).
    A stack (..., n, n) checks each matrix against its own scale and names
    its first offending row.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not m.size:
        return m
    reject_first(~np.isfinite(m).all(axis=(-2, -1)), lambda k: f"{name} contains non-finite entries")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    dev = np.abs(m - np.swapaxes(m.conj(), -1, -2)).max(axis=(-2, -1))
    reject_first(dev > 1e-10 * scale, lambda k: f"{name} is not Hermitian (deviation {np.max(dev[k]):.3e})")
    return m


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SpinRep:
    """Matrix representation of a single spin.

    Attributes
    ----------
    twice_j : int
        Twice the spin quantum number (1 for spin-1/2, 2 for spin-1, ...).
    jx, jy, jz : np.ndarray
        Hermitian (2j+1) x (2j+1) generators.  ``jz`` is diagonal with
        entries j, j-1, ..., -j.  The arrays are marked read-only.
    """

    twice_j: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    def __repr__(self) -> str:  # keep dataclass repr away from the matrices
        half = "" if self.twice_j % 2 == 0 else "/2"
        num = self.twice_j // 2 if self.twice_j % 2 == 0 else self.twice_j
        return f"SpinRep(j={num}{half}, dim={self.dim})"


def twice_spin(j) -> int:
    """The integer 2j; ValueError unless j is a positive half-integer <= MAX_SPIN."""
    jf = float(j)
    if not np.isfinite(jf):
        raise ValueError(f"spin must be a positive half-integer, got {j!r}")
    twice_j = round(2 * jf)
    if abs(2 * jf - twice_j) > 1e-9 or twice_j <= 0:
        raise ValueError(f"spin must be a positive half-integer, got {j!r}")
    if twice_j > 2 * MAX_SPIN:
        raise ValueError(f"spin {j!r} exceeds the supported maximum {MAX_SPIN}")
    return twice_j


def build_spin_rep(j) -> SpinRep:
    """Construct the spin-j generators from the ladder operators.

    Parameters
    ----------
    j : half-integer
        Spin quantum number; 2j must be a positive integer and j <= 50.

    The raising operator has matrix elements sqrt(j(j+1) - m(m+1)) one
    step above the diagonal; jx and jy follow as the Hermitian and
    anti-Hermitian combinations, jz is diagonal in m.
    """
    twice_j = twice_spin(j)
    dim = twice_j + 1
    jq = twice_j / 2.0
    m = (twice_j - 2 * np.arange(dim)) / 2.0  # j, j-1, ..., -j

    raising = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        raising[k - 1, k] = np.sqrt(jq * (jq + 1) - m[k] * (m[k] + 1))
    lowering = raising.conj().T

    jx = (raising + lowering) / 2
    jy = (raising - lowering) / 2j
    jz = np.diag(m).astype(complex)
    return SpinRep(twice_j, _freeze(jx), _freeze(jy), _freeze(jz))


def dot_with_J(rep: SpinRep, a) -> np.ndarray:
    """Contract a real 3-vector with the spin generators: a_x jx + a_y jy + a_z jz.

    The result is Hermitian with eigenvalues |a| * m for m = j, ..., -j.
    A stack of vectors (..., 3) gives the stack of matrices (..., dim, dim).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 1 or a.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    reject_first(~np.isfinite(a).all(axis=-1), lambda k: "coefficient vector must be finite")
    x, y, z = (a[..., k, None, None] for k in range(3))
    return x * rep.jx + y * rep.jy + z * rep.jz


def hermitian_expm(matrix, scale) -> np.ndarray:
    """exp(scale * M) for Hermitian M via eigendecomposition.

    Diagonalizing M = V diag(w) V^dag and exponentiating the spectrum keeps
    the result exactly normal; for purely imaginary ``scale`` the output is
    unitary to machine precision regardless of ||M||.  ``matrix`` may be a
    stack (..., n, n) and ``scale`` an array; they broadcast over the
    leading axes, and each matrix gets the bits of its own call.
    """
    m = require_hermitian(matrix, name="expm operand")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            f"eigendecomposition failed for {m.shape[-2]}x{m.shape[-1]} matrix "
            f"(max |entry| {np.max(np.abs(m)):.3e}, frobenius {np.max(frobenius(m)):.3e}): {err}"
        ) from err
    phases = np.exp(np.asarray(scale)[..., None] * w)
    return (v * phases[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def su2_lift(rep: SpinRep, q) -> np.ndarray:
    """Spin-j matrix of the SU(2) element q = (w, x, y, z).

    ``q`` is a unit quaternion in the convention U = w I - i (x sx + y sy +
    z sz) at spin 1/2, i.e. U = exp(-i phi n.J) with phi = 2 atan2(|v|, w)
    and n = v / |v| for v = (x, y, z).  The lift is that one exponential at
    spin j.  With v = 0 the element is +I, or for w < 0 the rotation by
    2 pi, which is (-1)^(2j) I.
    """
    w, x, y, z = (float(c) for c in q)
    norm = math.hypot(w, x, y, z)
    if not abs(norm - 1.0) <= 1e-8:   # NaN and infinite entries fail too
        raise ValueError(f"quaternion is not a finite unit quaternion (norm {norm:.12f})")
    sine = math.hypot(x, y, z)
    if sine == 0.0:
        sign = -1.0 if w < 0 and rep.twice_j % 2 else 1.0
        return sign * np.eye(rep.dim, dtype=complex)
    phi = 2.0 * math.atan2(sine, w)
    return hermitian_expm(dot_with_J(rep, np.array([x, y, z]) / sine), -1j * phi)
