"""Complex three-vector algebra and irreducible tensor decompositions.

Vectors are length-3 numpy arrays of complex Cartesian components
(x, y, z).  Spherical components are ordered q = -1, 0, +1 and the
compound tensors {A* (x) A}_Kq are ordered q = -K .. +K.  The rank-2
scalar product used throughout is sum_q (-1)^q T_q S_{-q}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)


def as_cvector(v) -> np.ndarray:
    """Coerce input to a (3,) complex array, rejecting other shapes."""
    a = np.asarray(v, dtype=complex)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-component vector, got shape {a.shape}")
    return a


def vector_norm(v) -> float:
    """Euclidean norm; rescaled by the largest real or imaginary part
    only when the plain sum of squares overflows or underflows."""
    a = as_cvector(v)
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    parts = np.abs([a.real, a.imag])
    big = float(np.max(parts))
    if not 0.0 < norm < math.inf and 0.0 < big < math.inf:
        norm = big * float(np.sqrt(np.sum((parts / big) ** 2)))
    return norm


def spherical_components(v) -> np.ndarray:
    """Spherical components (A_-1, A_0, A_+1) of a Cartesian vector.

    A_-1 = (A_x - i A_y)/sqrt(2), A_0 = A_z, A_+1 = -(A_x + i A_y)/sqrt(2).
    """
    a = as_cvector(v)
    return np.array([
        (a[0] - 1j * a[1]) / _SQRT2,
        a[2],
        -(a[0] + 1j * a[1]) / _SQRT2,
    ])


def cartesian_components(sph) -> np.ndarray:
    """Inverse of :func:`spherical_components`."""
    s = np.asarray(sph, dtype=complex)
    if s.shape != (3,):
        raise ValueError(f"expected 3 spherical components, got shape {s.shape}")
    am, a0, ap = s
    return np.array([
        (am - ap) / _SQRT2,
        1j * (am + ap) / _SQRT2,
        a0,
    ])


def scalar_product(a, b) -> complex:
    """Cartesian dot product sum_i A_i B_i (no conjugation).

    Equals the spherical-basis contraction sum_q (-1)^q A_q B_{-q}.
    """
    a = as_cvector(a)
    b = as_cvector(b)
    return complex(np.sum(a * b))


def ellipticity_vector(a) -> np.ndarray:
    """The real vector i [A* x A], characterizing the ellipticity of A.

    Vanishes iff A is a real vector times a phase (linear polarization).
    """
    a = as_cvector(a)
    return (1j * np.cross(a.conj(), a)).real


def compound_tensor(a, rank: int) -> np.ndarray:
    """Components of {A* (x) A}_Kq for K = rank, ordered q = -K .. +K.

    Parameters
    ----------
    a : array_like
        Complex Cartesian 3-vector.
    rank : int
        0, 1, or 2.  Any other value raises ValueError.

    Returns
    -------
    numpy.ndarray
        Shape (2*rank + 1,) complex array.
    """
    if rank not in (0, 1, 2):
        raise ValueError(f"rank must be 0, 1 or 2, got {rank!r}")
    am, a0, ap = spherical_components(a)
    n_m, n_0, n_p = abs(am) ** 2, abs(a0) ** 2, abs(ap) ** 2
    if rank == 0:
        return np.array([-(n_0 + n_p + n_m) / _SQRT3])
    if rank == 1:
        return np.array([
            (a0 * np.conj(ap) + np.conj(a0) * am) / _SQRT2,
            (n_p - n_m) / _SQRT2,
            -(a0 * np.conj(am) + np.conj(a0) * ap) / _SQRT2,
        ])
    return np.array([
        -am * np.conj(ap),
        -(a0 * np.conj(ap) - np.conj(a0) * am) / _SQRT2,
        (2.0 * n_0 - n_p - n_m) / _SQRT6,
        -(a0 * np.conj(am) - np.conj(a0) * ap) / _SQRT2,
        -ap * np.conj(am),
    ])


def tensor_scalar_product(t, s) -> complex:
    """Contraction sum_q (-1)^q T_q S_{-q} of two equal-rank tensors."""
    t = np.asarray(t, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if t.shape != s.shape or t.ndim != 1 or t.shape[0] % 2 == 0:
        raise ValueError("tensors must share an odd 1-d shape (2K+1,)")
    k = (t.shape[0] - 1) // 2
    q = np.arange(-k, k + 1)
    return complex(np.sum((-1.0) ** q * t * s[::-1]))


@dataclass(frozen=True)
class RateDecomposition:
    """Scalar, vector and rank-2 tensor parts of a coupling rate.

    The three parts sum to the full rate N |d . e|^2.
    """

    scalar_part: float
    vector_part: float
    tensor_part: float

    @property
    def total(self) -> float:
        return self.scalar_part + self.vector_part + self.tensor_part


def decompose_coupling(d, e, n: float) -> RateDecomposition:
    """Split N |d . e|^2 into irreducible scalar/vector/tensor parts.

    Parameters
    ----------
    d, e : array_like
        Complex 3-vectors (dipole and field polarizations).
    n : float
        Nonnegative overall factor (mode count / density prefactor).

    Returns
    -------
    RateDecomposition
        (N/3)|d|^2|e|^2, (N/2)[d* x d].[e* x e], and the rank-2
        contraction N {d* (x) d}_2 . {e* (x) e}_2.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = as_cvector(d)
    e = as_cvector(e)
    nd2 = float(np.sum(np.abs(d) ** 2))
    ne2 = float(np.sum(np.abs(e) ** 2))
    scalar = n / 3.0 * nd2 * ne2
    vector = n / 2.0 * float(
        np.real(np.sum(np.cross(d.conj(), d) * np.cross(e.conj(), e)))
    )
    tensor = n * float(
        np.real(tensor_scalar_product(compound_tensor(d, 2), compound_tensor(e, 2)))
    )
    return RateDecomposition(scalar, vector, tensor)
