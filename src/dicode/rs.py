"""Reed-Solomon evaluation codes over either field representation.

A codeword is the evaluation of the message polynomial (message symbols
are its coefficients, constant term first) at the first ``length`` field
elements in canonical index order, starting from the zero element.  All
codes here are maximum distance separable: d = length - dim + 1.  No
decoder is provided; identification only ever tests ball membership.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .galois import ExtensionContext, FieldContext


class RSCode:
    def __init__(self, field, length: int, dim: int):
        order = field.q if isinstance(field, FieldContext) else field.order
        if not 1 <= dim <= length:
            raise ValueError(f"need 1 <= dim <= length, got dim={dim}, length={length}")
        if length > order:
            raise ValueError(f"length {length} exceeds field order {order}")
        self.field = field
        self.length = length
        self.dim = dim

    @property
    def min_distance(self) -> int:
        return self.length - self.dim + 1

    def __repr__(self) -> str:
        return f"RSCode(q={getattr(self.field, 'q', None)}, n={self.length}, k={self.dim})"

    def encode(self, message: Sequence[int]) -> list[int]:
        """Horner evaluation at every point, scalar field ops; any field."""
        if len(message) != self.dim:
            raise ValueError(f"message length {len(message)} != dim {self.dim}")
        F = self.field
        out = []
        for point in range(self.length):
            val = message[-1]
            for coeff in reversed(message[:-1]):
                val = F.add(F.mul(val, point), coeff)
            out.append(val)
        return out

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        """Encode many messages at once; FieldContext with dense tables only.

        messages: (N, dim) element indices; returns (N, length).
        """
        F = self.field
        if not isinstance(F, FieldContext) or F.MUL is None:
            raise ValueError("encode_batch needs a small FieldContext with tables")
        V = np.zeros((self.dim, self.length), dtype=np.int32)
        V[0, :] = 1
        points = np.arange(self.length, dtype=np.int32)
        for j in range(1, self.dim):
            V[j] = F.MUL[V[j - 1], points]
        acc = np.zeros((messages.shape[0], self.length), dtype=np.int32)
        for j in range(self.dim):
            acc = F.ADD[acc, F.MUL[messages[:, j : j + 1], V[j][None, :]]]
        return acc

    def encode_digits(self, message_digits: np.ndarray) -> np.ndarray:
        """Encode one message given as digit rows; ExtensionContext only.

        message_digits: (dim, k) base-field digit rows, one per coefficient.
        Returns (length, k) digit rows, one per evaluated point.  Vector
        Horner: the evaluation points are the first ``length`` canonical
        elements, whose digit rows are just base-q digits of 0..length-1.
        """
        F = self.field
        if not isinstance(F, ExtensionContext):
            raise ValueError("encode_digits needs an ExtensionContext field")
        if message_digits.shape != (self.dim, F.degree):
            raise ValueError("message digit matrix has wrong shape")
        points = self._point_digits()
        vals = np.repeat(message_digits[-1][None, :], self.length, axis=0).astype(np.int32)
        for j in range(self.dim - 2, -1, -1):
            vals = F.vadd(F.vmul(vals, points), message_digits[j][None, :])
        return vals

    def _point_digits(self) -> np.ndarray:
        F = self.field
        cached = getattr(self, "_points_cache", None)
        if cached is None:
            idx = np.arange(self.length, dtype=np.int64)
            digs = np.empty((self.length, F.degree), dtype=np.int32)
            base_q = F.base.q
            for d in range(F.degree):
                idx, rem = np.divmod(idx, base_q)
                digs[:, d] = rem
            cached = self._points_cache = digs
        return cached
