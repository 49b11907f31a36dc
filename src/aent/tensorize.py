"""Reshaping matrices into tensors with prime-sized sites.

A matrix of shape (d_out, d_in) is viewed as a tensor whose axes are the
prime factors of d_out followed by the prime factors of d_in, each in
non-decreasing order.  The reshape is plain row-major, so no data moves:
entry (i, j) of the matrix lands at the multi-index obtained by writing i
in the mixed radix of the row sites and j in the mixed radix of the
column sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


def prime_factorize(n: int) -> list[int]:
    """Prime factors of ``n`` in non-decreasing order; empty for ``n == 1``."""
    n = int(n)
    if n < 1:
        raise InvalidArgumentError(f"prime_factorize requires n >= 1, got {n}")
    factors: list[int] = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


@dataclass(frozen=True)
class SiteLayout:
    """Site dimensions of a tensorized matrix.

    ``out_sites`` are the prime factors of the row dimension, ``in_sites``
    those of the column dimension.  Cut ``k`` (1-based) separates the first
    ``k`` sites from the rest; the cut at ``k == n`` is the original
    row-column split of the matrix.
    """

    out_sites: tuple[int, ...]
    in_sites: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.out_sites)

    @property
    def m(self) -> int:
        return len(self.in_sites)

    @property
    def sites(self) -> tuple[int, ...]:
        return self.out_sites + self.in_sites

    @property
    def d_out(self) -> int:
        return math.prod(self.out_sites)

    @property
    def d_in(self) -> int:
        return math.prod(self.in_sites)

    @property
    def num_cuts(self) -> int:
        return max(len(self.sites) - 1, 0)

    def cut_dims(self, cut: int) -> tuple[int, int]:
        """(d_left, d_right) of the bipartition at ``cut``."""
        sites = self.sites
        if not 1 <= cut <= len(sites) - 1:
            raise InvalidArgumentError(
                f"cut must be in [1, {len(sites) - 1}], got {cut}"
            )
        return math.prod(sites[:cut]), math.prod(sites[cut:])


def _finite(m: np.ndarray) -> bool:
    """No NaN or inf in ``m``, read from its max and min, which both propagate; no bool temporary is made."""
    return math.isfinite(m.max(initial=0.0)) and math.isfinite(m.min(initial=0.0))


def as_matrix(matrix) -> np.ndarray:
    """Coerce to a finite 2-d float64 C-contiguous array; 32-bit input is widened."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise InvalidArgumentError(f"expected a 2-d array, got ndim={arr.ndim}")
    if arr.size == 0:
        raise InvalidArgumentError("expected a non-empty matrix")
    if np.iscomplexobj(arr):
        raise InvalidArgumentError("complex matrices are not supported")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if not _finite(arr):
        raise InvalidArgumentError("matrix has NaN or infinite entries")
    return arr


def tensorize(matrix) -> tuple[SiteLayout, np.ndarray]:
    """Reshape a matrix into its prime-site tensor.

    Returns the layout and the reshaped array.  The array shares memory
    with the (coerced) input whenever possible; the flattened order is
    unchanged.
    """
    arr = as_matrix(matrix)
    layout = SiteLayout(
        out_sites=tuple(prime_factorize(arr.shape[0])),
        in_sites=tuple(prime_factorize(arr.shape[1])),
    )
    tensor = arr.reshape(layout.sites)
    return layout, tensor
