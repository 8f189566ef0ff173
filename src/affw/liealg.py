"""Exact root-system, weight-lattice and Weyl-group machinery for the finite
simple Lie algebras.

Everything here is exact: weights are vectors of rationals in the
fundamental-weight basis (so the pairing with a simple coroot is a coordinate
read), roots additionally carry integer coordinates in the simple-root basis,
and Weyl elements are integer matrices acting on fundamental-weight
coordinates.  The bilinear form is normalised so the highest root has squared
length 2.

All exact linear algebra goes through one routine, :func:`_gauss_jordan`: a
single fraction-free integer elimination gives the inverse Cartan matrix
(hence the Gram matrix of the fundamental weights), the finite-type test
(every pivot positive) and det A (the product of the pivots), as Fractions
built once at the end.  The positive roots are the closure of the simple
roots under the simple reflections that keep a root positive, paired with
the Cartan columns on Python ints, and :func:`build_root_system` derives
every other invariant from those two results before constructing the
:class:`RootSystem` once.
Where exact rationals feed integer numpy arithmetic, :func:`_int_numerators`
scales them to one common denominator.

Weyl groups are never materialised.  One weight at a time,
:meth:`RootSystem.reflect_coords` applies a simple reflection and
:meth:`RootSystem.dominant_word` reflects into the dominant chamber (label
sets, conservative weights).  The whole group is one walk:
:func:`_walk` follows the orbit tree of the Weyl vector with a
canonical-parent rule, one layer slice at a time, which visits every element
exactly once using memory proportional to the longest element.  A row of a
Weyl matrix is a coroot, and right multiplication by a simple reflection
permutes the coroots (Humphreys, Introduction to Lie Algebras and
Representation Theory, 10.2 Lemma B), so the walk carries each element as n
indices into the table of the 2|Delta_+| coroots (:func:`_coroot_table`),
and a child is one gather through that table's reflection permutations: a
pending slice holds 2n ints per element, the point w^{-1}(rho) and the row
indices.  :func:`weyl_blocks` gathers the matrices of each slice as integer
numpy blocks (the Kac-Wakimoto numerator); :func:`weyl_stream` yields the
same elements one :class:`WeylElement` (a named tuple) at a time, built
from the coroot tuples shared between elements.  The alternating Weyl sums
of the S-matrices are not walks but coset determinants (``modular``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "CartanType",
    "LieAlgebraError",
    "RootSystem",
    "Root",
    "Weight",
    "WeylBlock",
    "WeylElement",
    "build_root_system",
    "weyl_blocks",
    "weyl_stream",
]


class LieAlgebraError(ValueError):
    """Invalid Cartan data or an operation applied outside its domain."""


_FAMILIES = "ABCDEFG"
# the root data grow as a power of the rank (n(n+1)/2 positive roots for A_n,
# each reflected n ways); a larger rank is refused before any of it is built
_MAX_RANK = 32


@dataclass(frozen=True)
class CartanType:
    """A finite-type Cartan datum ``(family, rank)`` in Bourbaki numbering."""

    family: str
    rank: int

    def __post_init__(self):
        f, n = self.family, self.rank
        if f not in _FAMILIES:
            raise LieAlgebraError(f"unknown family {f!r}")
        if n > _MAX_RANK:
            raise LieAlgebraError(f"rank {n} is above the largest supported rank {_MAX_RANK}")
        ok = {
            "A": n >= 1,
            "B": n >= 2,
            "C": n >= 2,
            "D": n >= 3,
            "E": n in (6, 7, 8),
            "F": n == 4,
            "G": n == 2,
        }[f]
        if not ok:
            raise LieAlgebraError(f"invalid rank {n} for family {f}")

    def __str__(self):
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(name: str) -> "CartanType":
        name = name.strip()
        # ASCII digits only: str.isdigit also accepts the Arabic-Indic two, say,
        # and int() reads it as 2
        digits = name[1:]
        if len(name) < 2 or name[0].upper() not in _FAMILIES or not (digits.isascii() and digits.isdigit()):
            raise LieAlgebraError(f"cannot parse Cartan type {name!r}")
        return CartanType(name[0].upper(), int(digits))

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Cartan matrix with ``a[i][j] = <alpha_i, alpha_j_check>``."""
        n = self.rank
        a = [[2 * (i == j) for j in range(n)] for i in range(n)]

        def bond(i, j, aij=-1, aji=-1):
            a[i][j] = aij
            a[j][i] = aji

        f = self.family
        if f in "ABC":
            for i in range(n - 1):
                bond(i, i + 1)
            if f == "B" and n >= 2:
                # alpha_{n-1} long, alpha_n short
                bond(n - 2, n - 1, -2, -1)
            if f == "C" and n >= 2:
                bond(n - 2, n - 1, -1, -2)
        elif f == "D":
            for i in range(n - 2):
                bond(i, i + 1)
            bond(n - 3, n - 1)
        elif f == "E":
            # Bourbaki: chain 1-3-4-5-...-n with node 2 attached to node 4.
            chain = [0] + list(range(2, n))
            for x, y in zip(chain, chain[1:]):
                bond(x, y)
            bond(1, 3)
        elif f == "F":
            bond(0, 1)
            bond(1, 2, -2, -1)
            bond(2, 3)
        elif f == "G":
            bond(0, 1, -1, -3)
        return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class Weight:
    """A vector in the fundamental-weight basis; entry ``i`` is ``<lam, alpha_i_check>``."""

    coords: tuple[Fraction, ...]

    @staticmethod
    def of(*coords) -> "Weight":
        return Weight(tuple(Fraction(c) for c in coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def __rmul__(self, c) -> "Weight":
        c = Fraction(c)
        return Weight(tuple(c * a for a in self.coords))

    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.coords)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.coords)

    def _check(self, other: "Weight"):
        if len(self.coords) != len(other.coords):
            raise LieAlgebraError("rank mismatch between weights")


@dataclass(frozen=True)
class Root:
    """A root carrying both coordinate systems plus its height."""

    weight: Weight                     # fundamental-weight coordinates
    root_coords: tuple[int, ...]       # simple-root coordinates
    height: int


class WeylElement(NamedTuple):
    """Weyl group element as an integer matrix on fundamental-weight coordinates.

    Row r of ``matrix`` is the coroot ``w^{-1} alpha_r_check`` in simple-coroot
    coordinates, since ``(w lam)_r = <lam, w^{-1} alpha_r_check>``.  A named
    tuple, so it equals the plain tuple ``(matrix, length_parity)``.
    """

    matrix: tuple[tuple[int, ...], ...]
    length_parity: int  # epsilon(w) = (-1)^{length}

    def act(self, lam: Weight) -> Weight:
        m = self.matrix
        return Weight(
            tuple(sum(m[r][c] * lam.coords[c] for c in range(len(m))) for r in range(len(m)))
        )


def _gauss_jordan(m: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact inverse and pivots of ``m`` by Gauss-Jordan elimination without row swaps.

    Pivot k is the ratio of the leading principal minors of sizes k + 1 and
    k, so all pivots are positive iff every leading minor is, and their
    product is det m.  A zero pivot (a vanishing leading minor) raises.

    The elimination is fraction-free (Bareiss, Math. Comp. 22 (1968) 565-578)
    on the integer matrix ``den * m``, den the least common denominator: after
    step k every entry of ``[den m | 1]`` is a minor of it, so each update
    divides exactly by the previous pivot, the diagonal ends at
    ``d = det(den m)`` and the right half at ``d (den m)^-1``.  Fractions are
    built only for the returned inverse and pivots.
    """
    n = len(m)
    den = math.lcm(*(Fraction(x).denominator for row in m for x in row))
    aug = [[int(x * den) for x in row] + [int(r == c) for c in range(n)] for r, row in enumerate(m)]
    minors = [1]
    for col in range(n):
        piv, prev = aug[col][col], minors[-1]
        if piv == 0:
            raise LieAlgebraError(f"leading minor of size {col + 1} vanishes")
        minors.append(piv)
        top = aug[col]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [(piv * x - f * y) // prev for x, y in zip(aug[r], top)]
    det = minors[-1]
    inverse = [[Fraction(den * x, det) for x in row[n:]] for row in aug]
    return inverse, [Fraction(b, a * den) for a, b in zip(minors, minors[1:])]


def _int_numerators(values) -> tuple[np.ndarray, int]:
    """``(den * values, den)``: exact rationals as an int64 array over their
    least common denominator.

    ``values`` is a (nested) sequence of ints and Fractions; its array shape
    is kept, and ``den`` is 1 when there are no entries.
    """
    a = np.array(values, dtype=object)
    den = math.lcm(*(Fraction(x).denominator for x in a.flat))
    return np.array([int(x * den) for x in a.flat], dtype=np.int64).reshape(a.shape), den


@dataclass(frozen=True)
class RootSystem:
    """Root system data of a finite simple Lie algebra.

    The Gram matrix refers to the fundamental-weight basis, normalised so that
    ``(theta, theta) = 2``.
    """

    cartan_type: CartanType
    cartan_matrix: tuple[tuple[int, ...], ...]
    simple_root_norms_half: tuple[Fraction, ...]      # d_i = (alpha_i, alpha_i)/2
    gram: tuple[tuple[Fraction, ...], ...]            # (varpi_i, varpi_j)
    cartan_inverse: tuple[tuple[Fraction, ...], ...]
    simple_roots: tuple[Root, ...]
    positive_roots: tuple[Root, ...]                  # ordered by (height, root coords)
    highest_root: Root
    weyl_vector: Weight
    dual_coxeter: int
    comarks: tuple[int, ...]                          # <varpi_i, theta_check>
    exponents: tuple[int, ...]                        # ascending; m_i + 1: principal W weights
    weyl_order: int
    index_P_mod_Q: int
    index_P_mod_Qcheck: int

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @property
    def dimension(self) -> int:
        return 2 * len(self.positive_roots) + self.rank

    # -- basis conversions ------------------------------------------------

    def root_to_weight(self, root_coords: Sequence) -> Weight:
        """Weight coordinates of ``sum_i c_i alpha_i``."""
        a = self.cartan_matrix
        n = self.rank
        return Weight(
            tuple(sum(Fraction(root_coords[i]) * a[i][j] for i in range(n)) for j in range(n))
        )

    def weight_to_root(self, lam: Weight) -> tuple[Fraction, ...]:
        """Simple-root coordinates of ``lam``; exact, round-trips with root_to_weight."""
        ainv = self.cartan_inverse
        n = self.rank
        # lam = sum_i c_i alpha_i with f = A^T c, so c = A^{-T} f.
        return tuple(
            sum(ainv[j][i] * lam.coords[j] for j in range(n)) for i in range(n)
        )

    def fundamental_weight(self, i: int) -> Weight:
        return Weight(tuple(Fraction(int(i == j)) for j in range(self.rank)))

    def zero_weight(self) -> Weight:
        return Weight((Fraction(0),) * self.rank)

    # -- pairings ----------------------------------------------------------

    def bilinear(self, lam: Weight, mu: Weight) -> Fraction:
        """The normalised invariant form ``(lam, mu)``."""
        if lam.rank != self.rank or mu.rank != self.rank:
            raise LieAlgebraError("rank mismatch")
        g = self.gram
        return sum(
            lam.coords[i] * g[i][j] * mu.coords[j]
            for i in range(self.rank)
            for j in range(self.rank)
            if lam.coords[i] != 0 and mu.coords[j] != 0
        ) or Fraction(0)

    def level(self, lam: Weight) -> Fraction:
        """``<lam, theta_check>``."""
        return sum(Fraction(c) * x for c, x in zip(self.comarks, lam.coords)) or Fraction(0)

    # -- Weyl group --------------------------------------------------------

    def reflect_coords(self, i: int, coords: tuple) -> tuple:
        """Apply ``s_i``, ``lam_j -> lam_j - lam_i a_ij``, to fundamental-weight
        coordinates (any scalar type)."""
        ci = coords[i]
        return tuple([c - ci * x for c, x in zip(coords, self.cartan_matrix[i])])

    def dominant_word(self, coords: tuple) -> tuple[tuple, list[int]]:
        """Reflect fundamental-weight ``coords`` into the dominant chamber.

        Always reflects at the first negative coordinate.  Returns the
        dominant coordinates and the simple reflections used, first to last.
        Python ints stay ints, so integral weights need no ``Fraction``.
        """
        word = []
        while True:
            for i, c in enumerate(coords):
                if c < 0:
                    break
            else:
                return coords, word
            coords = self.reflect_coords(i, coords)
            word.append(i)


def _positive_root_closure(a: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, sorted by (height, coords).

    Every positive root is reached from a simple root by simple reflections
    that keep it positive (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.2-10.3), so the roots are the closure of the
    simple roots under ``s_i(beta) = beta - <beta, alpha_i_check> alpha_i``
    whenever that stays >= 0.
    """
    n = len(a)
    cols = list(zip(*a))  # <beta, alpha_i_check> = sum_j beta_j a_{ji}
    todo = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(todo)
    while todo:
        beta = todo.pop()
        for i, col in enumerate(cols):
            pairing = sum(map(mul, beta, col))
            if pairing and beta[i] >= pairing:
                image = beta[:i] + (beta[i] - pairing,) + beta[i + 1 :]
                if image not in known:
                    known.add(image)
                    todo.append(image)
    return sorted(known, key=lambda r: (sum(r), r))


def _symmetrizer(a: tuple[tuple[int, ...], ...]) -> tuple[Fraction, ...]:
    """d_i with d_j a_{ij} = d_i a_{ji}, normalised so long roots have d = 1."""
    n = len(a)
    d: list[Fraction | None] = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and a[i][j] != 0 and d[j] is None:
                # d_j a_{ij} = d_i a_{ji}
                d[j] = d[i] * a[j][i] / a[i][j]
                queue.append(j)
    if any(x is None for x in d):
        raise LieAlgebraError("disconnected Dynkin diagram")
    top = max(d)  # type: ignore[type-var]
    return tuple(x / top for x in d)  # type: ignore[operator]


def build_root_system(t: CartanType) -> RootSystem:
    """Construct the full :class:`RootSystem` for a valid Cartan type."""
    a = t.cartan_matrix()
    n = t.rank
    ainv, pivots = _gauss_jordan(a)
    # finite type: every leading principal minor, hence every pivot, positive
    if any(p <= 0 for p in pivots):
        raise LieAlgebraError(f"Cartan matrix of {t} is not of finite type")

    d = _symmetrizer(a)
    # (varpi_i, varpi_j) = (A^{-1})_{ij} d_j
    gram = tuple(tuple(ainv[i][j] * d[j] for j in range(n)) for i in range(n))

    cols = list(zip(*a))

    def mk_root(rc: tuple[int, ...]) -> Root:
        return Root(Weight(tuple([Fraction(sum(map(mul, rc, col))) for col in cols])), rc, sum(rc))

    positive = tuple(mk_root(rc) for rc in _positive_root_closure(a))
    highest = positive[-1]
    theta = highest.weight.coords

    # <lam, theta_check> = (lam, theta) since (theta, theta) = 2
    comarks = tuple(sum(g * x for g, x in zip(row, theta)) for row in gram)
    theta_norm = sum(c * x for c, x in zip(comarks, theta))
    if theta_norm != 2:
        raise LieAlgebraError(f"normalisation broken: (theta,theta) = {theta_norm}")
    if any(c.denominator != 1 for c in comarks):
        raise LieAlgebraError("comarks are not integral")
    comarks_int = tuple(int(c) for c in comarks)

    exps = _exponents_from_heights([r.height for r in positive], n)

    # |P/Q| = det A; |P/Q_check| = det(A)/prod d_i  (coroot alpha_i_check has
    # fundamental coordinates row_i(A)/d_i).
    det_a = math.prod(pivots)
    idx_qc = det_a / math.prod(d)
    if idx_qc.denominator != 1:
        raise LieAlgebraError("|P/Q_check| not integral")

    return RootSystem(
        cartan_type=t,
        cartan_matrix=a,
        simple_root_norms_half=d,
        gram=gram,
        cartan_inverse=tuple(tuple(row) for row in ainv),
        simple_roots=positive[n - 1 :: -1],  # height 1 sorts alpha_n first
        positive_roots=positive,
        highest_root=highest,
        weyl_vector=Weight((Fraction(1),) * n),
        dual_coxeter=1 + sum(comarks_int),
        comarks=comarks_int,
        exponents=exps,
        weyl_order=math.prod(m + 1 for m in exps),
        index_P_mod_Q=int(det_a),
        index_P_mod_Qcheck=int(idx_qc),
    )


def _exponents_from_heights(heights: Sequence[int], rank: int) -> tuple[int, ...]:
    """Exponents as the conjugate of the partition of Delta_+ by height."""
    maxh = max(heights)
    counts = [0] * (maxh + 1)
    for h in heights:
        counts[h] += 1
    exps = sorted(
        sum(1 for h in range(1, maxh + 1) if counts[h] >= i) for i in range(1, rank + 1)
    )
    if len(exps) != rank:
        raise LieAlgebraError("height partition has wrong width")
    return tuple(exps)


# -- the Weyl group walk -----------------------------------------------------


class WeylBlock(NamedTuple):
    """A slice of one depth layer of the Weyl orbit tree.

    Row b holds one element w_b of length ``depth``: ``points[b] =
    w_b^{-1}(rho)`` and ``matrices[b]`` is w_b on fundamental-weight
    coordinates, so every element of the block has parity ``(-1)**depth``.
    """

    points: np.ndarray    # (B, n) int64
    matrices: np.ndarray  # (B, n, n) int64
    depth: int

    @property
    def parity(self) -> int:
        return -1 if self.depth % 2 else 1


WEYL_BLOCK_ROWS = 256  # larger slices gain little speed and cost peak memory


def _coroot_table(rs: RootSystem) -> tuple[np.ndarray, np.ndarray]:
    """``(coroots, perm)``: the 2|Delta_+| coroots +-beta (beta a positive root
    of A^T, in simple-coroot coordinates; the positive ones first, sorted by
    (height, coords), so the simple coroot alpha_r_check is row n - 1 - r),
    which are all the rows of Weyl matrices, and ``perm[k, i]``, the row of
    ``s_k(coroots[i]) = coroots[i] - <alpha_k, coroots[i]> alpha_k_check``.
    """
    n = rs.rank
    positive = _positive_root_closure(tuple(zip(*rs.cartan_matrix)))
    coroots = np.array(positive + [tuple(-x for x in r) for r in positive], np.int64)
    index = {r: i for i, r in enumerate(map(tuple, coroots.tolist()))}
    # <alpha_k, beta> = sum_j a_kj beta_j for beta = sum_j beta_j alpha_j_check
    pairs = coroots @ np.array(rs.cartan_matrix, np.int64).T
    eye = np.eye(n, dtype=np.int64)
    perm = np.array([
        [index[r] for r in map(tuple, (coroots - np.outer(pairs[:, k], eye[k])).tolist())]
        for k in range(n)
    ])
    return coroots, perm


def _walk(rs: RootSystem, perm: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield every element of W exactly once as ``(points, rows, depth)``.

    The orbit tree of the (regular) Weyl vector: node v = u(rho) has child
    s_k(v) for exactly those k with v_k > 0 whose canonical parent rule
    (reflect at the first negative coordinate) points back through k.  The
    walk starts at the identity, at rho.  The element at node u is w =
    u^{-1}, carried as its n matrix rows, indices into the coroot table of
    ``perm`` (:func:`_coroot_table`): the child s_k u holds w s_k, whose row
    r is s_k applied to row r of w, so a child costs one gather
    ``perm[k, rows]``.  The children of a block under all simple
    reflections are computed together, cut into slices of at most
    ``WEYL_BLOCK_ROWS`` elements and walked depth-first, so at most
    ``rank`` slices per layer are pending, each holding 2n ints per element:
    memory is bounded by ``WEYL_BLOCK_ROWS * rank * (length of w0 + 1)``
    elements.  The order is deterministic.
    """
    a = np.array(rs.cartan_matrix, dtype=np.int64)
    n = rs.rank
    stack = [(np.ones((1, n), np.int64), np.arange(n - 1, -1, -1)[None], 0)]
    while stack:
        points, rows, depth = stack.pop()
        # u[b, k] = s_k(v_b); keep (b, k) when v_bk > 0 and the first
        # negative coordinate of u[b, k] is k (the canonical parent rule)
        u = points[:, None, :] - points[:, :, None] * a
        k, b = np.nonzero(((points > 0) & (np.argmax(u < 0, axis=2) == np.arange(n))).T)
        child_points, child_rows = u[b, k], perm[k[:, None], rows[b]]
        for s in reversed(range(0, len(b), WEYL_BLOCK_ROWS)):
            cut = slice(s, s + WEYL_BLOCK_ROWS)
            stack.append((child_points[cut], child_rows[cut], depth + 1))
        yield points, rows, depth


def weyl_blocks(rs: RootSystem) -> Iterator[WeylBlock]:
    """Yield every element of W exactly once, in blocks.

    One :class:`WeylBlock` per slice of :func:`_walk`, its matrices gathered
    from the coroot rows the walk carries: ``points[b] = w_b^{-1}(rho)``.
    The order is deterministic, and memory is bounded by the pending slices,
    ``WEYL_BLOCK_ROWS * rank * (length of w0 + 1)`` elements of 2n ints.
    """
    coroots, perm = _coroot_table(rs)
    for points, rows, depth in _walk(rs, perm):
        # take gathers a few times faster here than coroots[rows]
        yield WeylBlock(points, coroots.take(rows, axis=0), depth)


def weyl_stream(rs: RootSystem) -> Iterator[WeylElement]:
    """Yield every Weyl group element exactly once, in a deterministic order.

    One :class:`WeylElement` per row of :func:`weyl_blocks`: elements come out
    block by block, each block a slice of one length layer, with lengths
    ascending along each branch of the walk.  Memory is bounded by the
    pending slices, at most ``WEYL_BLOCK_ROWS * rank * (length of w0 + 1)``
    elements of 2n ints and never |W|, which is what permits scanning W(E8)
    without materialising it.  Matrix rows are coroot tuples shared between
    elements, built once per call and picked by the row indices the walk
    carries, so no (B, n, n) block is built.
    """
    n = rs.rank
    coroots, perm = _coroot_table(rs)
    table = list(map(tuple, coroots.tolist()))
    for _, rows, depth in _walk(rs, perm):
        mats = zip(*[map(table.__getitem__, rows.ravel().tolist())] * n)
        parity = -1 if depth % 2 else 1
        yield from map(tuple.__new__, repeat(WeylElement), zip(mats, repeat(parity)))
