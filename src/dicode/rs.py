"""Reed-Solomon evaluation codes over any field of the tower.

A codeword is the evaluation of the message polynomial (message symbols
are its coefficients, constant term first) at the first ``length`` field
elements in canonical index order, starting from the zero element.  All
codes here are maximum distance separable: d = length - dim + 1.  No
decoder is provided; identification only ever tests ball membership.

The outer encoder ``encode_coords`` is subspace evaluation (Cantor 1989;
Gao & Mateer 2010) in GF(p) linear algebra on ``ExtensionContext``
coordinates: an index's base-p digits are its coordinates, so the points
0..p^i - 1 are the span V_i of the first i basis elements, whose
vanishing polynomial L_i is linearized (sparse, and GF(p)-linear).
``vanishing_coords`` builds prod (x - e) over the first points from the
same maps.  The inner encoder, ``encode_batch``, is one float32 product
of many messages' coordinates with the code's GF(p) generator matrix.
``encode`` (scalar Horner) is the oracle of both; ``encode_digits``
(vector Horner on the digit matrices of a tabled base) remains as tested
reference code, which the benchmark tracer wraps by name.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .galois import FLOAT32_EXACT, ExtensionContext, reduce_mod

# float32 temporaries of one block of nodes or coefficients stay near this
WORK_BYTES = 1 << 18


def _divide(v: np.ndarray, lower: np.ndarray, P: int, p: int) -> None:
    """Divide each polynomial of v by L = x^P + sum_{l<i} a_l x^(p^l), in place.

    v: (N, m, D) coordinates, m > P; then v[:, P:] holds the quotients
    mod p, and v[:, :P] the remainders, unreduced but exact in float32
    with one more product added.  lower: (D, i D), i >= 1, the M_{a_l}^T.
    A block of quotient coefficients no wider than P - p^(i-1) touches
    only coefficients below itself, so it is one product.
    """
    D, i = v.shape[2], lower.shape[1] // v.shape[2]
    width = max(1, min(P - P // p, WORK_BYTES // (4 * lower.shape[1] * len(v))))
    exact = p + (i + 1) * D * (p - 1) ** 2 < FLOAT32_EXACT  # i + 1 products sum exactly
    for hi in range(v.shape[1], P, -width):
        lo = max(P, hi - width)
        prod = (reduce_mod(v[:, lo:hi], p).reshape(-1, D) @ lower).reshape(len(v), hi - lo, -1)
        if not exact:
            reduce_mod(prod, p)
        for l in range(i):
            shift = p**l - P
            v[:, lo + shift : hi + shift] -= prod[..., l * D : (l + 1) * D]


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
        """Encode many messages at once by one GF(p) product with the generator.

        messages: (N, dim, D) GF(p) coordinates, one row per coefficient;
        returns (N, length, D) int8 coordinates, one row per point.
        """
        F, D = self.field, self.field.prime_degree
        messages = np.asarray(messages, dtype=np.float32)
        if messages.shape[1:] != (self.dim, D):
            raise ValueError("message coordinate array has wrong shape")
        prod = reduce_mod(messages.reshape(len(messages), -1) @ self._generator, F.p)
        return prod.astype(np.int8).reshape(len(messages), self.length, D)

    @cached_property
    def _generator(self) -> np.ndarray:
        """(dim D, length D) float32 generator, built once per code.

        Block (j, x) is M^T for M the GF(p) matrix of multiplication by
        x^j, so a row of message coordinates times it is the codeword.
        Its sums of dim D products must stay exact in float32.
        """
        F, p, D, n, k = self.field, self.field.p, self.field.prime_degree, self.length, self.dim
        if k * D * p * p >= FLOAT32_EXACT:
            raise ValueError(f"{self!r}: generator sums exceed float32's exact range")
        mats = [np.broadcast_to(np.eye(D, dtype=np.int64), (n, D, D))]  # M_1 at every point
        points = F.mul_matrices(F.coordinates(np.arange(n))).astype(np.int64)
        for _ in range(1, k):
            mats.append(points @ mats[-1] % p)  # M_{x^j} = M_x M_{x^(j-1)}
        return np.array(mats).transpose(0, 3, 1, 2).reshape(k * D, n * D).astype(np.float32)

    def encode_coords(self, message: np.ndarray) -> np.ndarray:
        """Encode one message given as GF(p) coordinates.

        message: (dim, D) coordinates, one row per coefficient; returns
        (length, D) int8 coordinates, one row per evaluated point.

        The coset u p^i + V_i has vanishing polynomial L_i(x) - L_i(u p^i).
        The walk starts from the message on V_j, p^j >= length, and keeps
        the cosets that hold a point below ``length``.  At level i a
        node's g (degree < p^(i+1)) is expanded in place as
        sum_{t<p} G_t L_i^t by p - 1 divisions by L_i, and child c gets
        g mod (L_i - gamma) = sum_t gamma^t G_t, gamma = L_i((u p + c) p^i),
        by Horner.  Products are float32, reduced mod p while exact.
        """
        F, p, D = self.field, self.field.p, self.field.prime_degree
        if message.shape != (self.dim, D):
            raise ValueError("message coordinate matrix has wrong shape")
        levels = self._subspace_maps
        buf = np.zeros((p ** len(levels), D), dtype=np.float32)
        buf[: self.dim] = message
        for i in range(len(levels) - 1, -1, -1):
            _, lower, child = levels[i]
            P, size = p**i, p ** (i + 1)
            step = max(1, WORK_BYTES // (4 * p * D * (P + D)))
            for a in range(0, len(child), step):
                b = min(a + step, len(child))
                g = buf[a * size : b * size].reshape(b - a, size, D)
                for t in range(p - 1 if i else 0):  # g[:, t P:(t+1) P] becomes G_t
                    _divide(g[:, t * P :], lower, P, p)
                G = g.reshape(b - a, p, P, D)
                mats = child[a:b].astype(np.float32)
                acc = G[:, p - 1 :]
                for t in range(p - 2, -1, -1):
                    acc = reduce_mod(acc @ mats + G[:, t : t + 1], p)
                G[:] = acc  # child c of node u is buf rows (u p + c) P onwards
        return buf[: self.length].astype(np.int8)

    def vanishing_coords(self, count: int) -> np.ndarray:
        """(count + 1, D) int8 coordinates of prod_{e<count} (x - e), constant first.

        The base-p digits of count split the points 0..count-1 into
        cosets c + V_i, and the product over one of them is the sparse
        L_i(x) - L_i(c).  Factors multiply in from the lowest digit.
        """
        F, p, D = self.field, self.field.p, self.field.prime_degree
        if not 0 <= count < self.length:
            raise ValueError(f"need 0 <= count < length, got {count}")
        poly = np.zeros((count + 1, D), dtype=np.float32)
        poly[0, 0] = 1  # the constant 1
        for i, (A, lower, _) in enumerate(self._subspace_maps):
            P = p**i
            for c in range(count // P % p):
                deg = count % P + c * P  # the points multiplied in so far
                start = count // (P * p) * (P * p) + c * P
                gamma = F.coordinates([start]) @ A.T % p
                terms = np.hstack([-F.mul_matrices(gamma)[0].T.astype(np.float32), lower])
                new = np.zeros((deg + P + 1, D), dtype=np.float32)
                new[P:] = poly[: deg + 1]  # the monic x^P term
                rows = max(1, WORK_BYTES // (4 * terms.shape[1]))
                for a in range(0, deg + 1, rows):
                    b = min(a + rows, deg + 1)
                    prod = reduce_mod(poly[a:b] @ terms, p)
                    for l, shift in enumerate([0] + [p**j for j in range(i)]):
                        new[a + shift : b + shift] += prod[:, l * D : (l + 1) * D]
                poly[: deg + P + 1] = reduce_mod(new, p)
        return poly.astype(np.int8)

    @cached_property
    def _subspace_maps(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(A_i, C_i, H_i) for each level i with p^i < length, built once per code.

        L_i = sum_{l<=i} a_l x^(p^l), L_0 = x, L_{i+1} = L_i^p - mu L_i with
        mu = L_i(p^i)^(p-1).  A_i (D, D) is L_i as a GF(p)-linear map and
        C_i (D, i D) stacks the M_{a_l}^T, l < i.  With Phi the Frobenius
        matrix, A_{i+1} = (Phi - M_mu) A_i, and the coefficient columns
        take the same step with Phi's part shifted up one.  H_i
        (nodes, p, D, D) int8 is M_gamma^T for each child ``encode_coords``
        visits at level i.
        """
        F, p, D = self.field, self.field.p, self.field.prime_degree
        def power(x, e):  # each row of x to the e-th power, by e - 1 products
            mats, out = F.mul_matrices(x).astype(np.int64), np.asarray(x, dtype=np.int64)
            for _ in range(e - 1):
                out = np.einsum("nij,nj->ni", mats, out) % p
            return out

        frob = power(np.eye(D), p).T  # column l: (p^l)^p
        A, coef, maps = np.eye(D, dtype=np.int64), np.eye(D, 1, dtype=np.int64), []
        while p ** len(maps) < self.length:
            i = len(maps)
            count, step = -(-self.length // p ** (i + 1)) * p, max(1, WORK_BYTES // (4 * D * D))
            child = np.empty((count, D, D), dtype=np.int8)
            for a in range(0, count, step):
                gamma = F.coordinates(np.arange(a, min(a + step, count)) * p**i) @ A.T % p
                child[a : a + step] = F.mul_matrices(gamma).transpose(0, 2, 1)
            lower = F.mul_matrices(coef[:, :i].T).astype(np.float32)
            maps.append((A, lower.transpose(2, 0, 1).reshape(D, i * D), child.reshape(-1, p, D, D)))
            m_mu = F.mul_matrices(power(A[:, i][None], p - 1))[0].astype(np.int64)
            A = (frob - m_mu) @ A % p
            coef = (frob @ np.pad(coef, ((0, 0), (1, 0))) - m_mu @ np.pad(coef, ((0, 0), (0, 1)))) % p
        return maps

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
