"""Verlinde fusion coefficients from a unitary S-matrix, plus ring comparison.

Integrality of the rounded coefficients is treated as a hard correctness
gate: it cross-checks every upstream decision (label sets, identifications,
normalisation), so violations raise instead of warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .modular import SMatrix

__all__ = ["FusionTable", "FusionError", "find_vacuum", "verlinde", "fusion_ring_isomorphic"]

INTEGRALITY_TOL = 1e-6
PERMUTATION_TOL = 1e-9  # how far charge_conjugation lets S^2 stray from a permutation
ZERO_TOL = 1e-12  # an S-matrix entry this small counts as zero: its row cannot be the vacuum


class FusionError(ValueError):
    pass


@dataclass
class FusionTable:
    labels: list
    coefficients: np.ndarray        # N[a, b, c], non-negative integers
    vacuum: int
    quantum_dimensions: np.ndarray  # d_a = S[v,a]/S[v,v]
    max_coefficient: int
    rounding_residual: float

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]

    def check_axioms(self):
        n = self.coefficients
        v = self.vacuum
        size = self.size
        if not np.array_equal(n[v], np.eye(size, dtype=n.dtype)):
            raise FusionError("N_{v a}^b != delta_a^b")
        if not np.array_equal(n, n.transpose(1, 0, 2)):
            raise FusionError("fusion coefficients not symmetric in (a, b)")
        # Light's test: the g with (y g) z = y (g z) for all y, z form a
        # subalgebra holding the unit, so one g that generates the ring
        # proves associativity.  With (M_g)_{y,e} = sum_i g_i N_yi^e and the
        # symmetry above, (y g) z = sum_e (M_g)_{y,e} N_ze^., so the test is
        # M_g times each N_z, n^4 multiply-adds, equal to its (y, z)
        # transpose.  One product per z, not one (n x n) @ (n x n^2): the
        # wide one maps about 0.3 MB more of the BLAS buffer for good.
        # g has pseudo-random weights in [1, 2^8], and _generates proves
        # exactly that it generates.  Its partial sums are integers of at
        # most size^2 * 2^8 * max^2; past 2^53, or where the proof fails,
        # every basis vector is a g: the n^5 check, with partial sums of at
        # most size * max^2.  Each runs in the float _exact_float picks for
        # its bound: float32 below 2^24, float64 below 2^53.
        top = max(int(n.max()), -int(n.min()))
        flat = n.reshape(size, size * size)
        gens = None
        if size * size * top * top << _WEIGHT_BITS < 2**53:
            f = flat.astype(_exact_float(size * size << _WEIGHT_BITS, top))
            g = (_weights(size).astype(f.dtype) @ f).reshape(1, size, size)
            if _generates(g[0].astype(np.int64), v):
                gens = g
        if gens is None:
            f = flat.astype(_exact_float(size, top))
            gens = f.reshape(size, size, size)
        stack = f.reshape(size, size, size)
        for g in gens:
            left = g @ stack  # left[z, y] = (y g) z
            if not np.array_equal(left, left.transpose(1, 0, 2)):
                raise FusionError("fusion coefficients are not associative")


# 8 bits keep the one-g product in float32 while size * max < 256 (KP A2
# k=9: 55 * 4).  With 12 bits such tables need float64, whose BLAS kernels
# no other fusion step runs: about 0.2 MB more resident for good.
_WEIGHT_BITS = 8
_MASK64 = 2**64 - 1
_PRIME = 2**25 - 39  # size * p^2 < 2^63: _generates' row products fit in int64


def _weights(size: int) -> np.ndarray:
    """1 + the top _WEIGHT_BITS bits of splitmix64 of 1..size: fixed pseudo-random weights.

    splitmix64's last step, z ^ (z >> 31), leaves the top bits as they are.
    Python ints keep numpy's uint64 loops, and their pages, out of the check.
    """
    w = []
    for i in range(1, size + 1):
        z = i * 0x9E3779B97F4A7C15 & _MASK64
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
        z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
        w.append((z >> 64 - _WEIGHT_BITS) + 1)
    return np.array(w, dtype=np.int64)


def _generates(m: np.ndarray, v: int) -> bool:
    """Whether the rows e_v, e_v m, e_v m^2, ..., e_v m^(n-1) have rank n mod _PRIME.

    With m = M_g these rows are 1, g, g g, ...: rank n means g generates the
    ring.  Rank n modulo a prime leaves a minor that is non-zero modulo it,
    so non-zero: a proof, not a guess.  The elimination is fraction-free,
    and every product of two residues stays below p^2.
    """
    size = m.shape[0]
    if size * _PRIME * _PRIME >= 2**63:
        return False
    m = m % _PRIME
    k = np.zeros((size, size), dtype=np.int64)
    k[0, v] = 1
    for i in range(1, size):
        np.matmul(k[i - 1], m, out=k[i])
        k[i] %= _PRIME
    for c in range(size):
        if not k[c, c]:
            rows = np.flatnonzero(k[c:, c])
            if not rows.size:
                return False
            k[[c, c + rows[0]]] = k[[c + rows[0], c]]
        rest = k[c + 1:, c:]
        rest[:] = (k[c, c] * rest - rest[:, :1] * k[c, c:]) % _PRIME
    return True


def _exact_float(size: int, top: int) -> type:
    """The narrowest float type holding every integer up to ``size * top^2`` exactly."""
    bound = size * top * top
    if bound < 2**24:
        return np.float32
    if bound < 2**53:
        return np.float64
    raise FusionError(
        f"associativity check not exact in float64: n * max^2 = "
        f"{size} * {top}^2 >= 2^53"
    )


def _pairs(s: np.ndarray) -> np.ndarray:
    """pairs[j, (b, c)] = S_bj conj(S_cj), an n x n^2 matrix."""
    n = s.shape[0]
    return (s.T[:, :, None] * s.conj().T[:, None, :]).reshape(n, n * n)


def _verlinde_raw(s: np.ndarray, vacuum: int, pairs: Optional[np.ndarray] = None) -> np.ndarray:
    """N_{ab}^c = sum_j (S_aj / S_vj) S_bj conj(S_cj), as one (n x n) @ (n x n^2) product.

    ``pairs`` is :func:`_pairs` of ``s``, built here when not passed in; the
    row ``s[vacuum]`` must have no zero entry.
    """
    n = s.shape[0]
    if pairs is None:
        pairs = _pairs(s)
    return ((s / s[vacuum]) @ pairs).reshape(n, n, n)


def _integral_nonnegative(raw: np.ndarray) -> bool:
    rounded = np.round(raw.real)
    return bool(
        np.abs(raw - rounded).max() < INTEGRALITY_TOL
        and rounded.min() > -INTEGRALITY_TOL
    )


def _passing_tensor(s: np.ndarray, v: int, pairs: np.ndarray) -> Optional[np.ndarray]:
    """Row ``v``'s Verlinde tensor if it is non-negative integral, else None.

    The a = 0 slice N_{0b}^c(v), one (n) @ (n x n^2) product, is tested
    first, so a row it rules out never gets the full n^3 tensor.
    """
    n = s.shape[0]
    if not _integral_nonnegative(((s[0] / s[v]) @ pairs).reshape(n, n)):
        return None
    raw = _verlinde_raw(s, v, pairs)
    return raw if _integral_nonnegative(raw) else None


def _find_vacuum(s: SMatrix) -> tuple[int, np.ndarray]:
    """:func:`find_vacuum` and the vacuum's Verlinde tensor.

    Each row's tensor is dropped before the next row is tested, so at most
    one n^3 tensor is alive; the winner's is rebuilt only when a row of its
    group was tested after it.
    """
    if s.normalization != "unitary":
        raise FusionError("find_vacuum needs a unitary S-matrix")
    e = s.entries
    rows = np.flatnonzero(np.abs(e).min(axis=1) >= ZERO_TOL).tolist()
    pairs = _pairs(e)
    dims = e[rows] / e[rows, rows][:, None]
    positive = (dims.real > 1e-9).all(axis=1) & (np.abs(dims.imag) < 1e-9).all(axis=1)
    declared = s.provenance.get("vacuum")
    for group in (
        [v for v, ok in zip(rows, positive) if ok],
        [rows[rows.index(declared)]] if declared in rows else [],
        rows,
    ):
        passing = []
        for v in group:
            raw = None  # free the last tensor before building the next
            raw = _passing_tensor(e, v, pairs)
            if raw is not None:
                passing.append(v)
                if len(passing) == 2 and group is not rows:
                    break  # this group cannot decide; only the error needs every row
        if len(passing) == 1:
            return passing[0], _verlinde_raw(e, passing[0], pairs) if raw is None else raw
    if not passing:
        raise FusionError("no vacuum candidate: wrong label set or normalisation")
    raise FusionError(f"vacuum is not unique: candidates {passing}")


def find_vacuum(s: SMatrix) -> int:
    """Index against which Verlinde yields non-negative integers.

    Simple-current twists can make several rows pass the integrality test.
    The rule is one row test (the a = 0 slice of the row's Verlinde tensor,
    then the whole tensor, non-negative integral) over three groups of rows
    in turn: the rows with positive quantum dimensions, then the
    constructor's declared vacuum (``provenance["vacuum"]``), then every
    row.  The first group in which exactly one row passes decides.  When
    none does, no passing row or several are a :class:`FusionError`, a
    structural error upstream.
    """
    return _find_vacuum(s)[0]


def verlinde(s: SMatrix, vacuum: Optional[int] = None) -> FusionTable:
    """The fusion table of ``s`` against ``vacuum`` (:func:`find_vacuum` when None).

    A ``vacuum`` that is not an index in ``range(n)``, or whose row has a zero
    entry, is a :class:`FusionError`.
    """
    if vacuum is None:
        vacuum, raw = _find_vacuum(s)
    elif not (isinstance(vacuum, (int, np.integer)) and 0 <= vacuum < s.size):
        raise FusionError(f"vacuum must be a label index in range({s.size}), not {vacuum!r}")
    elif np.abs(s.entries[vacuum]).min() < ZERO_TOL:
        raise FusionError(f"vacuum row {vacuum} has a zero entry")
    else:
        raw = _verlinde_raw(s.entries, vacuum)
    rounded = np.round(raw.real)
    residual = float(np.abs(raw - rounded).max())
    if residual >= INTEGRALITY_TOL:
        raise FusionError(f"fusion coefficients not integral (residual {residual:.3e})")
    if rounded.min() < -INTEGRALITY_TOL:
        raise FusionError("negative fusion coefficient")
    coeffs = rounded.astype(np.int64)  # the gate above leaves 0 or -0.0, both cast to 0
    del raw, rounded  # the n^3 complex and float tensors, before the axiom check's own
    dims = (s.entries[vacuum] / s.entries[vacuum, vacuum]).real
    table = FusionTable(
        labels=list(s.labels),
        coefficients=coeffs,
        vacuum=vacuum,
        quantum_dimensions=dims,
        max_coefficient=int(coeffs.max()),
        rounding_residual=residual,
    )
    table.check_axioms()
    return table


def charge_conjugation(s: SMatrix) -> np.ndarray:
    """Permutation from S^2 (on a phase-fixed matrix); errors if not one."""
    m = s.entries @ s.entries
    perm = np.full(s.size, -1, dtype=int)
    for a in range(s.size):
        row = np.abs(m[a])
        b = int(row.argmax())
        if abs(m[a, b] - 1) > PERMUTATION_TOL or row.sum() - row[b] > PERMUTATION_TOL:
            raise FusionError("S^2 is not a permutation matrix")
        perm[a] = b
    if sorted(perm) != list(range(s.size)):
        raise FusionError("S^2 permutation is not a bijection")
    return perm


def fusion_ring_isomorphic(f1: FusionTable, f2: FusionTable) -> Optional[list[int]]:
    """A vacuum-preserving relabelling with N1[a,b,c] = N2[s(a),s(b),s(c)], or None."""
    if f1.size != f2.size:
        return None
    n = f1.size
    n1, n2 = f1.coefficients, f2.coefficients

    def invariants(nt, dims, a):
        return (
            int(nt[a, a, a]),
            int(nt[a, a].sum()),
            int(nt[a].sum()),
            round(float(dims[a]), 6),
        )

    inv1 = [invariants(n1, f1.quantum_dimensions, a) for a in range(n)]
    inv2 = [invariants(n2, f2.quantum_dimensions, a) for a in range(n)]
    cand = [
        [b for b in range(n) if inv2[b] == inv1[a]] for a in range(n)
    ]
    if not all(cand):
        return None

    perm = [-1] * n
    used = [False] * n
    perm[f1.vacuum] = f2.vacuum
    used[f2.vacuum] = True
    order = sorted(
        (a for a in range(n) if a != f1.vacuum), key=lambda a: len(cand[a])
    )

    def backtrack(placed, images):
        # the structure constants through the label a placed last, each triple
        # once: (a, x, y) for all placed x, y; (x, a, y) for x placed before
        # a; (x, y, a) for x, y placed before a.  A triple without a was
        # compared when its own last label was placed.
        a, b, old, old_images = placed[-1], images[-1], placed[:-1], images[:-1]
        if not (
            np.array_equal(n1[a, placed][:, placed], n2[b, images][:, images])
            and np.array_equal(n1[old, a][:, placed], n2[old_images, b][:, images])
            and np.array_equal(n1[:, :, a][old][:, old], n2[:, :, b][old_images][:, old_images])
        ):
            return False
        if len(placed) == n:
            return True
        a = order[len(placed) - 1]
        for b in cand[a]:
            if not used[b]:
                perm[a], used[b] = b, True
                if backtrack(np.append(placed, a), np.append(images, b)):
                    return True
                used[b] = False
        return False

    return perm if backtrack(np.array([f1.vacuum]), np.array([f2.vacuum])) else None
