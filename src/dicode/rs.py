"""Reed-Solomon evaluation codes over any field of the tower.

A codeword is the evaluation of the message polynomial (message symbols
are its coefficients, constant term first) at the first ``length`` field
elements in canonical index order, starting from the zero element.  All
codes here are maximum distance separable: d = length - dim + 1.  No
decoder is provided; identification only ever tests ball membership.

The outer encoder is ``encode_coords``: GF(p) linear algebra on the
coordinate vectors of ``ExtensionContext``, a baby-step/giant-step Horner
(Paterson & Stockmeyer 1973) whose baby steps for a block of points are
one float32 matrix product.  The inner encoder, ``encode_batch``,
gathers from the dense tables of a small field.  ``encode`` (scalar
Horner) is the oracle of both; ``encode_digits`` (vector Horner on digit
matrices) remains as tested reference code, which the benchmark tracer
wraps by name.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .galois import FLOAT32_EXACT, ExtensionContext, reduce_mod

# the cached per-point power coordinates (int8) stay under this, which
# fixes the baby-step count s
TABLE_BYTES = 1 << 21
# float32 work arrays of one block of points or coefficients stay under this
BLOCK_BYTES = 1 << 18


class RSCode:
    def __init__(self, field: ExtensionContext, length: int, dim: int):
        if not 1 <= dim <= length:
            raise ValueError(f"need 1 <= dim <= length, got dim={dim}, length={length}")
        if length > field.q:
            raise ValueError(f"length {length} exceeds field order {field.q}")
        self.field = field
        self.length = length
        self.dim = dim

    @property
    def min_distance(self) -> int:
        return self.length - self.dim + 1

    def __repr__(self) -> str:
        return f"RSCode(q={self.field.q}, n={self.length}, k={self.dim})"

    def encode(self, message: Sequence[int]) -> list[int]:
        """Horner evaluation at every point, scalar field ops."""
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
        """Encode many messages at once by table gathers; tabled fields only.

        messages: (N, dim) element indices; returns (N, length).
        """
        F = self.field
        V = np.zeros((self.dim, self.length), dtype=np.int32)
        V[0, :] = 1
        points = np.arange(self.length, dtype=np.int32)
        for j in range(1, self.dim):
            V[j] = F.MUL[V[j - 1], points]
        acc = np.zeros((messages.shape[0], self.length), dtype=np.int32)
        for j in range(self.dim):
            acc = F.ADD[acc, F.MUL[messages[:, j : j + 1], V[j][None, :]]]
        return acc

    def encode_coords(self, message: np.ndarray) -> np.ndarray:
        """Encode one message given as GF(p) coordinates.

        message: (dim, D) coordinates, one row per coefficient; returns
        (length, D) int8 coordinates, one row per evaluated point.

        With s baby steps, f(x) = sum_t (x^s)^t f_t(x) where
        f_t(x) = sum_{r<s} x^r c_{ts+r}.  Writing M_a for multiplication
        by a and B_l for the l-th basis matrix,
        f_t(x) = sum_{l,r} coord_l(x^r) (B_l c_{ts+r}), so one product of
        the message block u = [B_l c_{ts+r}] with the cached power
        coordinates gives f_t at every point of a chunk.  The giant steps
        then run Horner in x^s with the cached M_{x^s}, points along the
        last axis.  s = 1 is plain Horner.
        """
        F = self.field
        p, D = F.p, F.prime_degree
        if message.shape != (self.dim, D):
            raise ValueError("message coordinate matrix has wrong shape")
        powers, giant = self._horner_tables()
        s = powers.shape[2]
        T = -(-self.dim // s)
        coeffs = np.zeros((T * s, D), dtype=np.float32)
        coeffs[: self.dim] = message
        coeffs = coeffs.reshape(T, s, D).transpose(1, 0, 2)  # [r, t]: coefficient of x^(ts+r)
        basis_t = F.mul_matrices(np.eye(D)).astype(np.float32).transpose(0, 2, 1)
        steps = max(1, BLOCK_BYTES // (4 * D * D * s))  # giant steps per message block
        chunk = max(1, BLOCK_BYTES // (4 * D * s))  # points per block
        val = np.zeros((D, self.length), dtype=np.float32)
        for hi in range(T, 0, -steps):
            lo = max(0, hi - steps)
            block = np.ascontiguousarray(coeffs[:, lo:hi]).reshape(1, -1, D)
            u = reduce_mod(np.matmul(block, basis_t), p).reshape(D * s, (hi - lo) * D)
            for a in range(0, self.length, chunk):
                b = min(a + chunk, self.length)
                f = u.T @ powers[a:b].reshape(b - a, D * s).astype(np.float32).T
                f = reduce_mod(f, p).reshape(hi - lo, D, b - a)
                m = giant[:, :, a:b].astype(np.float32)
                v = val[:, a:b]
                bound = p - 1  # largest entry v can hold
                for t in range(hi - lo - 1, -1, -1):
                    v = np.einsum("ijp,jp->ip", m, v) + f[t]
                    bound = D * (p - 1) * bound + p - 1
                    if D * (p - 1) * bound + p - 1 >= FLOAT32_EXACT or t == 0:
                        reduce_mod(v, p)  # only before the next step could be inexact
                        bound = p - 1
                val[:, a:b] = v
        return val.T.astype(np.int8)

    def _horner_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-point tables of ``encode_coords``, built once per code.

        powers[x, l, r] = coord_l(x^r) for r < s, and giant[:, :, x] is
        the matrix of multiplication by x^s.  s is as large as the degree
        and TABLE_BYTES allow, and small enough that each dot product of
        the baby-step product (s*D terms, each at most (p-1)^2) stays
        exact in float32.
        """
        cached = getattr(self, "_tables", None)
        if cached is not None:
            return cached
        F = self.field
        p, D = F.p, F.prime_degree
        s = max(1, min(self.dim, (FLOAT32_EXACT - 1) // (D * (p - 1) ** 2),
                       TABLE_BYTES // (self.length * D)))
        powers = np.empty((self.length, D, s), dtype=np.int8)
        giant = np.empty((D, D, self.length), dtype=np.int8)
        chunk = max(1, BLOCK_BYTES // (4 * D * D))
        for a in range(0, self.length, chunk):
            b = min(a + chunk, self.length)
            mats = F.mul_matrices(F.coordinates(np.arange(a, b)))
            m = np.ascontiguousarray(mats.transpose(1, 2, 0), dtype=np.float32)
            v = np.zeros((D, b - a), dtype=np.float32)
            v[0] = 1  # x^0
            for r in range(s):
                powers[a:b, :, r] = v.T
                v = reduce_mod(np.einsum("ijp,jp->ip", m, v), p)
            giant[:, :, a:b] = F.mul_matrices(v.T).transpose(1, 2, 0)
        self._tables = (powers, giant)
        return self._tables

    def encode_digits(self, message_digits: np.ndarray) -> np.ndarray:
        """Encode one message given as digit rows; fields over a tabled base only.

        message_digits: (dim, k) base-field digit rows, one per coefficient.
        Returns (length, k) digit rows, one per evaluated point.  Vector
        Horner: the evaluation points are the first ``length`` canonical
        elements, whose digit rows are just base-q digits of 0..length-1.
        """
        F = self.field
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
