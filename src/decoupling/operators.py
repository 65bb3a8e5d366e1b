"""Dense complex operators on tensor-product Hilbert spaces.

Everything downstream (system-bath models, decoupling groups, pulse
schedules, propagation) is built on the :class:`Operator` wrapper: a dense
complex square matrix tagged with the ordered list of tensor-factor
dimensions of the space it acts on. Hamiltonians carry angular-frequency
units (hbar = 1); unitaries and density matrices are dimensionless.

Operators are immutable and have no arithmetic: the wrapped array is
write-protected, and code that combines operators combines their
``matrix`` arrays into a new Operator, so any function in this package may
be called concurrently without locking. An Operator holds its matrix from
construction on.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Hard cap on the total Hilbert-space dimension.
DIM_CAP = 4096

#: Absolute tolerance for the hermiticity check, relative to max(1, magnitude).
STRUCT_TOL = 1e-10

#: Tolerance for iterative / numerical comparisons.
NUMERIC_TOL = 1e-8


class Operator:
    """A dense complex matrix with tensor-factor bookkeeping.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix of shape ``(d, d)``.
    dims : sequence of int, optional
        Tensor-factor dimensions; their product must equal ``d``.
        Defaults to the single factor ``(d,)``.
    """

    __slots__ = ("matrix", "dims")

    def __init__(self, matrix, dims: Sequence[int] | None = None):
        arr = np.array(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {arr.shape}")
        dims = _checked_dims(arr.shape[0], dims)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "dims", dims)

    def __setattr__(self, name, value):
        raise AttributeError("Operator instances are immutable")

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self.matrix))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix))) if self.dim else 0.0

    def is_hermitian(self) -> bool:
        scale = max(1.0, self.max_abs())
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T))) <= STRUCT_TOL * scale

    def __repr__(self) -> str:
        return f"Operator(d={self.dim}, dims={self.dims})"


def _integer(name: str, value, minimum: int) -> int:
    """``value`` as an ``int``: an ``int`` or numpy integer, not a ``bool``, at least
    ``minimum``; otherwise a ``ValueError`` led by ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}: expected an integer, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}, got {value}")
    return int(value)


def _real(name: str, value, positive: bool = False) -> float:
    """``value`` as a finite ``float``: a real number, not a ``bool``, an int too large for a
    double reading as infinite, and with ``positive`` above 0; otherwise a ``ValueError``
    led by ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name}: expected a number, got {type(value).__name__}")
    v = math.inf if isinstance(value, int) and abs(value) >= 2**1024 else float(value)
    if not math.isfinite(v) or (positive and v <= 0):
        raise ValueError(f"{name}: must be a {'positive ' * positive}finite number, got {v!r}")
    return v


def _checked_dims(d: int, dims: Sequence[int] | None) -> tuple[int, ...]:
    """``dims`` (default ``(d,)``) as a tuple, checked to multiply to ``d``, at most the cap."""
    if d < 1:
        raise ValueError("operator dimension must be at least 1")
    if d > DIM_CAP:
        raise ValueError(f"dimension {d} exceeds the hard cap {DIM_CAP}")
    dims = (d,) if dims is None else tuple(int(n) for n in dims)
    if any(n < 1 for n in dims) or math.prod(dims) != d:
        raise ValueError(f"dims {dims} do not multiply to matrix dimension {d}")
    return dims


def expm_hermitian(h: Operator, t: float) -> Operator:
    """Unitary ``exp(-i H t)`` of a Hermitian generator.

    Computed by spectral decomposition: diagonalize ``H``, exponentiate the
    (real) eigenvalues, reassemble. Exact unitarity of the result is then
    limited only by the accuracy of the eigenbasis.
    """
    if not h.is_hermitian():
        raise ValueError("expm_hermitian requires a Hermitian generator")
    w, v = np.linalg.eigh(h.matrix)
    phases = np.exp(-1j * w * float(t))
    return Operator((v * phases) @ v.conj().T, h.dims)


def as_matrices(x: Operator | np.ndarray) -> np.ndarray:
    """The matrix of an :class:`Operator`, or an array of matrices, as complex."""
    return x.matrix if isinstance(x, Operator) else np.asarray(x, dtype=np.complex128)

