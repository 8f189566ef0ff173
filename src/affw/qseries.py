"""Truncated q-series with exact rational coefficients, two-variable
characters, and lattice theta functions (formal and numerically evaluated).

A :class:`QSeries` allows fractional exponents through a fixed common
denominator, so raw admissible characters (whose delta-degrees live in
(1/q)Z) stay exact.  Two-variable characters map finite weights to QSeries
and specialise to y-Laurent polynomials on demand.  The numeric theta path
is double precision with an explicit Gaussian tail certificate.

Characters, the triple product and the BRST series are dense integer boxes
multiplied or divided by factors (1 - x^s) in place.  A box runs on float64,
beside a majorant that takes every subtraction as an addition: 16 bytes a
cell.  While the majorant stays below 2**53 every float64 sum was exact, and
the box is read out in int64, with one Fraction per distinct value.  A box
that fails this certificate reruns on Python ints (8-byte object pointers a
cell, plus the ints).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .liealg import RootSystem, Weight, _gauss_jordan, _int_numerators, weyl_blocks

__all__ = [
    "QSeries",
    "TwoVarCharacter",
    "ThetaSpec",
    "QSeriesError",
    "eta_like_product",
    "verma_character",
    "irreducible_character",
    "kac_wakimoto_numerator",
    "triple_product_check",
    "brst_character",
    "w_vacuum_character",
    "principal_w_weights",
    "theta_eval",
    "modular_transform_check",
]


class QSeriesError(ValueError):
    pass


# largest dense character box, in cells of 16 bytes (a float64 entry and its
# float64 majorant; the int64 result reuses the majorant's half), 2 GiB in
# all: D4 level 1 order 3 needs 5.2e7 and fits, E6 level 1 order 1 needs 3.1e9
# (46 GiB).  A box past the float64 certificate reruns as 8-byte object
# pointers to Python ints.
MAX_BOX_CELLS = 1 << 27

# largest lattice-ball radius^2 theta_eval grows to while certifying its eps
MAX_THETA_RADIUS2 = 1e6

# int64 wraps silently: every integer of the Kac-Wakimoto walk stays below this
MAX_WALK_INT = 1 << 62
_LEVEL_TOO_LARGE = "level or weight too large: the Kac-Wakimoto translations must fit 64-bit integers"


@dataclass(frozen=True)
class QSeries:
    """Sum of c q^{e/den} over ``terms = {e: c}``, exact below order.

    Every key e is an integer exponent numerator below ``order``, every value
    c a non-zero Fraction, and the keys are in increasing order.  ``order`` is
    exclusive, in units of 1/den: coefficients of q^{e} with e*den >= order
    are unknown (truncated), everything below is exact.
    """

    den: int
    terms: dict[int, Fraction]
    order: int

    def __hash__(self):
        return hash((self.den, tuple(self.terms.items()), self.order))

    @staticmethod
    def _of(den: int, terms: Iterable[tuple[int, Fraction]], order: int) -> "QSeries":
        """The series of the (e, c) pairs ``terms``, without zeros or e >= order."""
        return QSeries(den, {e: c for e, c in sorted(terms) if c and e < order}, order)

    @staticmethod
    def make(coeffs: Iterable, shift=0, den=1, order=None) -> "QSeries":
        """``sum_i coeffs[i] q^{(shift + i)/den}``, exact below q^{order/den}
        (by default up to the last coefficient given)."""
        cs = [Fraction(c) for c in coeffs]
        if order is None:
            order = shift + len(cs)
        return QSeries._of(den, enumerate(cs, shift), order)

    @staticmethod
    def zero(order, den=1) -> "QSeries":
        return QSeries(den, {}, order)

    @staticmethod
    def one(order, den=1) -> "QSeries":
        return QSeries.make([1], 0, den, order)

    def _with_den(self, den: int) -> "QSeries":
        if den == self.den:
            return self
        if den % self.den:
            raise QSeriesError("denominator must refine")
        f = den // self.den
        return QSeries(den, {e * f: c for e, c in self.terms.items()}, self.order * f)

    def coefficient(self, exponent) -> Fraction:
        e = Fraction(exponent)
        scaled = e * self.den
        if scaled.denominator != 1:
            return Fraction(0)
        if scaled >= self.order:
            raise QSeriesError(f"coefficient of q^{e} is beyond the truncation order")
        return self.terms.get(int(scaled), Fraction(0))

    @property
    def order_frac(self) -> Fraction:
        return Fraction(self.order, self.den)

    def is_zero(self) -> bool:
        return not self.terms

    def _align(self, other: "QSeries") -> tuple["QSeries", "QSeries"]:
        den = math.lcm(self.den, other.den)
        return self._with_den(den), other._with_den(den)

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            other = QSeries.make([other], 0, self.den, self.order)
        a, b = self._align(other)
        acc = dict(a.terms)
        for e, c in b.terms.items():
            acc[e] = acc.get(e, 0) + c
        return QSeries._of(a.den, acc.items(), min(a.order, b.order))

    def __neg__(self) -> "QSeries":
        return QSeries(self.den, {e: -c for e, c in self.terms.items()}, self.order)

    def __sub__(self, other) -> "QSeries":
        return self + (-other if isinstance(other, QSeries) else -Fraction(other))

    def __rsub__(self, other) -> "QSeries":
        return -self + other

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            c = Fraction(other)
            return QSeries._of(self.den, ((e, x * c) for e, x in self.terms.items()), self.order)
        a, b = self._align(other)
        # exactness: a is exact below a.order, so products are exact below
        # min(a.order + val(b), b.order + val(a)); empty (zero) factors keep
        # the other side's order plus their own guarantee.
        va = next(iter(a.terms), a.order)
        vb = next(iter(b.terms), b.order)
        order = min(a.order + vb, b.order + va)
        acc: dict[int, Fraction] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = ea + eb
                if e >= order:
                    break
                acc[e] = acc.get(e, 0) + ca * cb
        return QSeries._of(a.den, acc.items(), order)

    def __rmul__(self, other):
        return self * other

    def same_series(self, other: "QSeries") -> bool:
        """Equal coefficients below the common truncation order."""
        a, b = self._align(other)
        order = min(a.order, b.order)
        return QSeries._of(a.den, a.terms.items(), order) == QSeries._of(b.den, b.terms.items(), order)

    def coeffs_dict(self) -> dict[Fraction, Fraction]:
        return {Fraction(e, self.den): c for e, c in self.terms.items()}

    def to_json(self) -> dict:
        return {
            "exponent_den": self.den,
            "coeffs": [
                [f"{e}/{self.den}", f"{c.numerator}/{c.denominator}"]
                for e, c in self.terms.items()
            ],
            "order": f"{self.order}/{self.den}",
        }


def eta_like_product(
    factors: Sequence[tuple[int, int, int]], order: int
) -> QSeries:
    """``prod over (n0, sign, mult) of prod_{n >= n0} (1 - q^n)^{sign*mult}``.

    Coefficients through q^order inclusive; ``sign`` is +1 or -1; the empty
    list gives 1.  Each factor is one pass over a list of integers: a
    descending ``c[i] -= c[i - n]`` multiplies by (1 - q^n), an ascending
    ``c[i] += c[i - n]`` divides by it.
    """
    c = [1] + [0] * order
    for n0, sign, mult in factors:
        if sign not in (1, -1) or mult < 0 or n0 < 1:
            raise QSeriesError("factor spec must be (n0 >= 1, +-1, mult >= 0)")
        for n in range(n0, order + 1):
            for _ in range(mult):
                if sign == 1:
                    for i in range(order, n - 1, -1):
                        c[i] -= c[i - n]
                else:
                    for i in range(n, order + 1):
                        c[i] += c[i - n]
    return QSeries.make(c, 0, 1, order + 1)


# -- two-variable characters ---------------------------------------------------


@dataclass
class TwoVarCharacter:
    """Map from finite weights (fundamental coordinates) to QSeries in q."""

    rank: int
    terms: dict[tuple[Fraction, ...], QSeries] = field(default_factory=dict)

    def add_term(self, coords: tuple, series: QSeries):
        if coords in self.terms:
            self.terms[coords] = self.terms[coords] + series
        else:
            self.terms[coords] = series
        if self.terms[coords].is_zero():
            del self.terms[coords]

    def __mul__(self, other: "TwoVarCharacter") -> "TwoVarCharacter":
        out = TwoVarCharacter(self.rank)
        for ca, sa in self.terms.items():
            for cb, sb in other.terms.items():
                prod = sa * sb
                if not prod.is_zero():
                    out.add_term(tuple(x + y for x, y in zip(ca, cb)), prod)
        return out

    def specialize(self, cochar: Sequence) -> dict[int, QSeries]:
        """y-grading by ``<mu, cochar>`` (must be integral on the support)."""
        co = [Fraction(c) for c in cochar]
        if len(co) != self.rank:
            raise QSeriesError(f"cocharacter has {len(co)} entries, the rank is {self.rank}")
        out: dict[int, QSeries] = {}
        for c, s in self.terms.items():
            e = sum(x * y for x, y in zip(c, co))
            if e.denominator != 1:
                raise QSeriesError(f"non-integral y-exponent {e}")
            k = int(e)
            out[k] = out.get(k, QSeries.zero(s.order, s.den)) + s
        return {k: v for k, v in out.items() if not v.is_zero()}

    def specialize_y1(self) -> QSeries:
        tot = None
        for s in self.terms.values():
            tot = s if tot is None else tot + s
        return tot if tot is not None else QSeries.zero(0)


def _denominator_steps(rs: RootSystem, order: int, finite_factor: bool):
    """(n, gamma) for each factor (1 - q^n e^{-gamma}) of the affine Weyl
    denominator with n <= order; gamma in simple-root coordinates."""
    steps = [(0, r.root_coords) for r in rs.positive_roots] if finite_factor else []
    for n in range(1, order + 1):
        steps += [(n, (0,) * rs.rank)] * rs.rank
        for r in rs.positive_roots:
            steps += [(n, r.root_coords), (n, tuple(-c for c in r.root_coords))]
    return steps


def _shifted(d: int, size: int) -> tuple[slice, slice]:
    """Destination and source slices of ``x -> x + d`` on ``range(size)``."""
    return slice(max(d, 0), size + min(d, 0)), slice(max(-d, 0), size - max(d, 0))


def _binomial(a: np.ndarray, shift: Sequence[int], inverse: bool = False, sign=-1) -> None:
    """``a *= (1 - x^shift)``, or ``a /= (1 - x^shift)`` with ``inverse``, in place.

    ``x^shift`` moves every entry by ``shift[i]`` along axis i; terms moved out
    of the array drop out, as in any truncated product.  Division is the
    running sum ``a[x] += a[x - shift]``, taken one block of ``shift[axis]``
    slices at a time along the first axis where the shift is positive, so
    every block reads only finished entries.  A product is
    ``a[x] += sign a[x - shift]``: ``sign`` +1 multiplies by (1 + x^shift)
    instead, and an array of signs broadcast along the leading axes takes
    each slice of them by its own sign.
    """
    cuts = [_shifted(d, size) for d, size in zip(shift, a.shape)]
    dst, src = [d for d, _ in cuts], [c for _, c in cuts]
    if not inverse:
        a[tuple(dst)] += sign * a[tuple(src)]
        return
    axis = next(i for i, d in enumerate(shift) if d > 0)
    d, size = shift[axis], a.shape[axis]
    for j in range(d, size, d):
        dst[axis], src[axis] = slice(j, j + d), slice(j - d, min(j, size - d))
        a[tuple(dst)] += a[tuple(src)]


# float64 adds two integers exactly while their sum stays within 2**53
_FLOAT_EXACT = 1 << 53

# the signs of a product step on a (box, majorant) pair: the majorant adds
_PAIR_SIGNS = np.array([-1.0, 1.0])


def _box(shape: Sequence[int], at, values, steps: Iterable[tuple[Sequence[int], bool]]) -> np.ndarray:
    """The integer box of ``shape`` holding ``values`` at the index ``at``
    after ``_binomial(box, shift, inverse)`` for each ``(shift, inverse)`` of
    ``steps``, exact: int64, or Python ints in an object array.

    The steps run once on a float64 pair: the box beside its majorant, which
    starts at |values| and takes every step with its subtraction turned into
    an addition.  So each majorant entry bounds that box entry in absolute
    value at every step, and never falls.  While the largest majorant entry
    stays below 2**53 every float64 sum added integers of at most 2**53 and
    was exact, and the box comes back as int64, written over the majorant's
    half of the buffer.  Otherwise the steps rerun on Python ints.
    """
    steps = list(steps)
    pair = np.zeros((2, *shape))
    pair[(0, *at)] = values
    pair[(1, *at)] = np.abs(values)
    signs = _PAIR_SIGNS.reshape(2, *[1] * len(shape))
    for shift, inverse in steps:
        _binomial(pair, (0, *shift), inverse, signs)
    if pair[1].max(initial=0) < _FLOAT_EXACT:
        box = pair[1].view(np.int64)
        box[...] = pair[0]
        return box
    del pair
    box = np.zeros(shape, dtype=object)
    box[at] = values
    for shift, inverse in steps:
        _binomial(box, shift, inverse)
    return box


def _refuse_box(cells: int) -> None:
    if cells > MAX_BOX_CELLS:
        raise QSeriesError(
            f"character window needs {cells} cells, more than the limit of "
            f"{MAX_BOX_CELLS}: lower the order or the depth"
        )


class _Numerator(NamedTuple):
    """``sum_b c[b] q^{t[b]/den} e^{lam - x[b]/s}``: a character numerator in
    the integers of the box, ``x`` in simple-root coordinates."""

    t: np.ndarray  # (terms,) int64
    x: np.ndarray  # (terms, rank) int64; Python ints where they may not fit
    c: np.ndarray  # (terms,) int64
    den: int
    s: int


def _divide_by_denominator(
    rs: RootSystem,
    lam: Weight,
    numerator: _Numerator,
    order: int,
    depth,
    finite_factor: bool,
) -> TwoVarCharacter:
    """``e^lam * numerator`` divided by the affine Weyl denominator.

    ``numerator`` holds no term below q^0.  The result holds every weight mu
    with height(lam - mu) <= ``depth`` and every q-exponent up to ``order``,
    all exact, and nothing beyond: each series is exact below
    q^{order + 1/den}, which is q^{order + 1} when all exponents are integral.

    The box ``a[t, x]`` is the coefficient of q^{t/den} e^{lam - x/s}.  Each
    factor (1 - q^n e^{-gamma})^{-1} is a running sum along the shift
    (n den, s gamma), one :func:`_box` step.  Raising the weight by a root
    costs at least q^1, so every partial product that ends in the window
    stays within height <= depth + order ht(theta) and coordinate
    x_i >= min(0, numerator)_i - s order theta_i; the box spans that, and
    the cut to the window comes last.  A box of more than ``MAX_BOX_CELLS``
    cells is refused before it is allocated.
    """
    den, s = numerator.den, numerator.s
    top = order * den
    keep_height = math.floor(s * depth)
    reach = keep_height + s * order * rs.highest_root.height
    keep = (numerator.t <= top) & (numerator.x.sum(axis=1) <= reach)
    t, x, c = numerator.t[keep], numerator.x[keep], numerator.c[keep]
    if not len(t):
        return TwoVarCharacter(rs.rank)
    theta = np.array(rs.highest_root.root_coords)
    lo = (np.minimum(x.min(axis=0), 0) - s * order * theta).tolist()
    shape = [top + 1] + [reach - sum(lo) + 1] * rs.rank  # x_i <= reach - sum_{j != i} lo_j
    _refuse_box(math.prod(shape))
    steps = [((n * den, *(s * g for g in gamma)), True) for n, gamma in _denominator_steps(rs, order, finite_factor)]
    # every kept offset lies in the box, so int64 holds it
    a = _box(shape, (t, *(x - lo).astype(np.int64).T), c, steps)
    return _read_window(rs, lam, a, lo, s, den, keep_height)


def _read_window(
    rs: RootSystem, lam: Weight, a: np.ndarray, lo: list[int], s: int, den: int, keep_height: int
) -> TwoVarCharacter:
    """The character in box ``a`` on its window, s height(lam - mu) <= ``keep_height``.

    Read in integers: the cells' coordinates go to fundamental coordinates in
    one int64 product with the Cartan matrix, and each distinct coordinate and
    coefficient becomes one Fraction.
    """
    top = a.shape[0] - 1
    height = sum(np.ogrid[tuple(slice(l, l + n) for l, n in zip(lo, a.shape[1:]))])
    cells = np.nonzero((height <= keep_height) & (a != 0).any(axis=0))
    # s (lam - mu) in simple-root, then in fundamental coordinates
    x = np.stack(cells, axis=1) + lo
    w = x @ np.array(rs.cartan_matrix, dtype=np.int64)
    coords = [{v: l - Fraction(v, s) for v in set(col)} for l, col in zip(lam.coords, w.T.tolist())]
    series = a[(slice(None), *cells)].T.tolist()
    value = {v: Fraction(v) for v in set().union(*series)}
    out = TwoVarCharacter(rs.rank)
    for xs, row in zip(w.tolist(), series):
        key = tuple(table[v] for table, v in zip(coords, xs))
        out.terms[key] = QSeries(den, {e: value[v] for e, v in enumerate(row) if v}, top + 1)
    return out


def verma_character(
    rs: RootSystem,
    lam: Weight,
    order: int,
    depth: Optional[int] = None,
    finite_factor: bool = True,
) -> TwoVarCharacter:
    """Character of the affine Verma module M(lam_hat), relative truncations.

    Exact for every retained weight: coefficients of e^{mu} q^j with
    j <= order and height(lam - mu) <= depth.  With ``finite_factor`` False
    the finite Weyl denominator is omitted (loop directions only), which is
    the form whose y=1 specialisation is finite.
    """
    if depth is None:
        depth = order * (max(r.height for r in rs.positive_roots) + 1)
    one = _Numerator(np.zeros(1, np.int64), np.zeros((1, rs.rank), np.int64), np.ones(1, np.int64), 1, 1)
    return _divide_by_denominator(rs, lam, one, order, depth, finite_factor)


def _level_shift(rs: RootSystem, level) -> Fraction:
    """k + h_check, refused unless positive."""
    kh = Fraction(level) + rs.dual_coxeter
    if kh <= 0:
        raise QSeriesError("level + dual Coxeter must be positive")
    return kh


def _refuse_negative_order(order: int) -> None:
    if order < 0:
        raise QSeriesError("order must be non-negative")


def _coroot_matrix(rs: RootSystem) -> np.ndarray:
    """Row i is the simple coroot alpha_i / d_i in fundamental coordinates;
    entry (i, j) is (alpha_i_check, alpha_j_check), an integer."""
    return np.array(
        [[int(a / d) for a in row] for row, d in zip(rs.cartan_matrix, rs.simple_root_norms_half)],
        dtype=np.int64,
    )


def _translations(
    co: np.ndarray, base: np.ndarray, kstride: int, stride: int, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Delta-drops and finite parts of ``t_beta`` on ``lam_hat + rho_hat``
    for ``beta = stride sum_i c_i alpha_i_check``, one beta per row of ``c``.

    All in integers over one denominator D: ``base`` is D (lam + rho) in
    fundamental coordinates, ``kstride`` is D (k + h_check) stride, ``co`` is
    :func:`_coroot_matrix`.  Row b of the two results is D times the drop
    ``(beta, lam + rho) + (k + h_check) |beta|^2 / 2`` and D times the
    translate ``lam + rho + (k + h_check) beta``.  The pairing of a coroot with
    a weight is a coordinate read, and c^T co c is even because every
    (alpha_i_check, alpha_i_check) is.
    """
    half_norms = np.einsum("bi,ij,bj->b", c, co, c) // 2
    return stride * (c @ base + kstride * half_norms), base + kstride * (c @ co)


def _kw_counts(rs: RootSystem, lam: Weight, level, stride: int, order: int) -> tuple[Counter, int, int]:
    """The Kac-Wakimoto numerator as integers: ``(counts, scale, den)``.

    ``counts[drop, x]`` is the sum of eps(w) over the elements of
    W x t_{stride Q_check} whose delta-drop is drop / scale and whose
    w o lam_hat - lam_hat has finite part x / scale, in fundamental
    coordinates; ``den`` is the denominator every drop of the level shares.
    Translations outside the norm bound implied by ``order`` cannot
    contribute and are dropped.  The drops and translates of the whole ball
    come from :func:`_translations` on integer coroot coefficients, and W is
    walked once with :func:`weyl_blocks` on lam + rho and every kept
    translate, all over one common denominator.
    """
    kh = _level_shift(rs, level)
    shifted = lam + rs.weyl_vector
    # delta-drop of t_{beta}: (beta, lam+rho) + |beta|^2/2 (k+h); minimising
    # over the W-orbit of lam+rho shows |beta|^2/2 (k+h) - |beta||lam+rho|
    # <= order is necessary.
    norm2 = rs.bilinear(shifted, shifted)
    try:
        # bound: |t_beta-shift| <= (|lam+rho| + sqrt(|lam+rho|^2 + 2 (k+h) order)) / (k+h)
        b = (math.sqrt(float(norm2)) + math.sqrt(float(norm2 + 2 * kh * order))) / float(kh)
        ints, scale = _int_numerators([*shifted.coords, kh * stride])
    except OverflowError:
        raise QSeriesError(_LEVEL_TOO_LARGE) from None
    need = Fraction(math.ceil(b * b / 2 + 1), stride * stride)
    # the float ball of coroot coefficients is a superset of
    # (beta, beta)/2 <= need, and the exact drop test below decides
    co = _coroot_matrix(rs)
    radius2 = float(2 * need) + 1e-6
    # the ball lies in the box |c_i| <= sqrt(radius2 (co^-1)_ii), and co^-1 is
    # the Gram matrix (varpi_i, varpi_j): refuse the ball by that box's point
    # count before enumerating it
    widths = np.sqrt(radius2 * np.array([float(rs.gram[i][i]) for i in range(rs.rank)]))
    box = np.prod(2 * np.floor(widths) + 1)
    if box > MAX_BOX_CELLS:
        raise QSeriesError(
            f"translation ball spans {box:.3g} coroot points, more than the limit of "
            f"{MAX_BOX_CELLS}: lower the weight or the order"
        )
    ball = _lattice_points(co.astype(float), np.zeros(rs.rank), radius2)
    base, kstride = ints[:-1], int(ints[-1])
    c = np.array(ball, dtype=np.int64).reshape(-1, rs.rank)
    # the same integers in floats bound the drops, the translates and their
    # Weyl images, |w(v)_i| <= |v| |alpha_i_check|, below MAX_WALK_INT
    fd, ft = _translations(co.astype(float), base.astype(float), float(kstride), stride, c.astype(float))
    norms2 = np.einsum("bi,ij,bj->b", ft, np.array(rs.gram, dtype=float), ft)
    reach = math.sqrt(norms2.max() * co.diagonal().max()) + np.abs(base).max()
    if max(np.abs(fd).max(), reach) >= MAX_WALK_INT:
        raise QSeriesError(_LEVEL_TOO_LARGE)
    drops, translates = _translations(co, base, kstride, stride, c)
    keep = drops <= order * scale
    drops = drops[keep].tolist()
    v, v0 = translates[keep].T, base[:, None]
    den = math.lcm((kh * stride * stride).denominator * kh.denominator, (2 * kh).denominator)
    # (scale drop, scale (w(translate) - lam - rho)) -> sum of eps(w)
    acc = Counter()
    for blk in weyl_blocks(rs):
        for drop, rows in zip(drops, (blk.matrices @ v - v0).transpose(2, 0, 1).tolist()):
            for row in rows:
                acc[drop, tuple(row)] += blk.parity
    return acc, scale, den


def kac_wakimoto_numerator(
    rs: RootSystem,
    lam: Weight,
    level,
    stride: int,
    order: int,
) -> TwoVarCharacter:
    """``sum_{w in W x t_{stride Q_check}} eps(w) e^{w o lam_hat - lam_hat}``.

    Keys are finite-weight differences; exponents of q are the delta-drops
    (rational for admissible levels).  Translations outside the norm bound
    implied by ``order`` cannot contribute and are dropped.  The counts come
    from one walk of W (:func:`_kw_counts`).
    """
    _refuse_negative_order(order)
    acc, scale, den = _kw_counts(rs, lam, level, stride, order)
    series: dict[tuple, dict] = {}
    for (drop, x), c in acc.items():
        if c:
            series.setdefault(x, {})[drop] = c
    # one Fraction per distinct coordinate, not one per coordinate of every key
    coords = {c: Fraction(c, scale) for c in {c for x in series for c in x}}
    num = TwoVarCharacter(rs.rank)
    for x, terms in series.items():
        # drop e / scale has denominator scale / gcd(e, scale)
        dd = math.lcm(den, *(scale // math.gcd(e, scale) for e in terms))
        at = ((e * dd // scale, Fraction(c)) for e, c in terms.items())
        num.terms[tuple(coords[c] for c in x)] = QSeries._of(dd, at, (order + 1) * dd)
    return num


def irreducible_character(
    rs: RootSystem,
    lam: Weight,
    level,
    stride: int,
    order: int,
    depth: Optional[int] = None,
) -> TwoVarCharacter:
    """Kac-Wakimoto character: alternating Verma sum over W x t_{stride Q_check}.

    ``stride`` is 1 for integrable weights (Weyl-Kac) and q for admissible
    vacuum-type integral coroot systems.  Truncation by q-order and weight
    depth; exact on the retained window.  The default depth holds every
    weight up to q^order: for dominant integral ``lam`` it is
    ht(lam - w0 lam) + order ht(theta).  A window too large for the dense
    box is refused before W is walked.
    """
    _refuse_negative_order(order)
    kh = _level_shift(rs, level)
    if depth is None and lam.is_dominant() and lam.is_integral():
        # grade n is spanned by at most n negative modes applied to the finite
        # module L(lam), whose lowest weight is w0 lam; each mode lowers the
        # height by at most ht(theta), and ht(lam - w0 lam) = 2 ht(lam)
        depth = int(2 * sum(rs.weight_to_root(lam))) + order * rs.highest_root.height
    elif depth is None:
        # weights of L(lam) at delta-degree <= order satisfy
        # |mu + rho|^2 <= |lam + rho|^2 + 2 (k+h) order
        shifted = lam + rs.weyl_vector
        norm2 = float(rs.bilinear(shifted, shifted))
        try:
            reach = math.sqrt(norm2 + 2 * float(kh) * order) + math.sqrt(norm2)
        except OverflowError:
            raise QSeriesError(_LEVEL_TOO_LARGE) from None
        hmax = math.sqrt(float(rs.bilinear(rs.weyl_vector, rs.weyl_vector))) * 2
        depth = math.ceil(reach * hmax) + order + 2
    # the box spans x = 0 and reaches s order theta_i below it on every axis,
    # with s, den >= 1: for the vacuum this is its exact size
    theta_height = rs.highest_root.height
    _refuse_box((order + 1) * (math.floor(depth) + 2 * order * theta_height + 1) ** rs.rank)
    acc, scale, den = _kw_counts(rs, lam, level, stride, order)
    return _divide_by_denominator(rs, lam, _kw_box_numerator(rs, acc, scale, den), order, depth, True)


def _kw_box_numerator(rs: RootSystem, acc: Counter, scale: int, den: int) -> _Numerator:
    """The counts of :func:`_kw_counts` as a :class:`_Numerator`, in integers.

    The q-exponents go over one denominator, the least common multiple of
    the series denominators of :func:`kac_wakimoto_numerator`.  The offset
    x / scale in fundamental coordinates is lam - mu = -A^{-T} x / scale in
    simple-root coordinates; with A^{-1} = ainv / d that is
    -(x ainv) / (scale d), reduced to the least common denominator s.
    """
    terms = [(drop, x, c) for (drop, x), c in acc.items() if c]
    drops = {drop for drop, _, _ in terms}
    if drops and min(drops) < 0:
        raise QSeriesError("numerator has a term below q^0: lam is not a highest weight here")
    den = math.lcm(den, *(scale // math.gcd(e, scale) for e in drops))
    ainv, d = _int_numerators(rs.cartan_inverse)
    rows = np.array([x for _, x, _ in terms], dtype=np.int64).reshape(-1, rs.rank)
    # |x ainv| <= max |x| times the largest column sum of |ainv|; past int64
    # the product runs on Python ints, and the box keeps only small offsets
    if int(np.abs(rows).max(initial=0)) * int(np.abs(ainv).sum(axis=0).max()) >= 1 << 63:
        rows, ainv = rows.astype(object), ainv.astype(object)
    beta = -(rows @ ainv)
    g = math.gcd(scale * d, *beta.ravel().tolist())
    t = np.array([drop * den // scale for drop, _, _ in terms], dtype=np.int64)
    c = np.array([c for _, _, c in terms], dtype=np.int64)
    return _Numerator(t, beta // g, c, den, scale * d // g)


# -- classical identities -------------------------------------------------------


# A two-variable series sum c[y, q] y^y q^q is held as a dense integer box,
# one row per y-power from the lowest one kept, one column per q-power
# 0..order, built by :func:`_box`.  Terms past q^order drop out, as in any
# truncated product.


def _dense_terms(a: np.ndarray, ymin: int) -> dict[tuple[int, int], Fraction]:
    """Nonzero entries of a dense (y, q) array as {(y, q): Fraction}, one
    Fraction per distinct value."""
    ys, qs = np.nonzero(a)
    vals = a[ys, qs].tolist()
    value = {v: Fraction(v) for v in set(vals)}
    return {(y + ymin, q): value[v] for y, q, v in zip(ys.tolist(), qs.tolist(), vals)}


def _triple_product_lhs(order: int) -> dict[tuple[int, int], Fraction]:
    """prod_{n=1}^{order+1} (1 - y^{-1} q^{n-1})(1 - y q^n) * sum_m y^m q^{m^2}
    through q^order, as {(y, q): coefficient}."""
    # a product term holds at most one y^{-1} at q^0 and pays q^1 for every
    # other y^{+-1}; the theta term y^m costs q^{m^2}: so |y| <= reach
    root = math.isqrt(order)
    reach = order + 1 + root
    shape = (2 * reach + 1, order + 1)
    steps = [(shift, False) for n in range(1, order + 2) for shift in ((-1, n - 1), (1, n))]
    prod = _box(shape, (reach, 0), 1, steps)
    # an lhs entry adds 2 root + 1 prod entries below 2**53, so int64 holds it
    # while root < 2**9, that is up to order 2.6e5, far past any box in memory
    lhs = np.zeros(shape, dtype=prod.dtype)
    for m in range(-root, root + 1):
        (yd, ys), (qd, qs) = _shifted(m, shape[0]), _shifted(m * m, shape[1])
        lhs[yd, qd] += prod[ys, qs]
    return _dense_terms(lhs, -reach)


def triple_product_check(order: int) -> dict:
    """Verify the Jacobi triple product in the sl2 level-1 form.

    LHS: prod (1 - y^{-1} q^{n-1})(1 - y q^n) * sum_m y^m q^{m^2};
    RHS: sum y^{3n} q^{3n^2+n} - sum y^{3n-1} q^{3n^2-n}.
    Returns a report with the first mismatch if any.
    """
    lhs = _triple_product_lhs(order)

    rhs: dict[tuple[int, int], Fraction] = {}
    reach = math.isqrt(order) + 1  # 3n^2 - |n| > order beyond it
    for n in range(-reach, reach + 1):
        for y, q, c in ((3 * n, 3 * n * n + n, 1), (3 * n - 1, 3 * n * n - n, -1)):
            if q <= order:
                rhs[(y, q)] = Fraction(c)

    keys = set(lhs) | set(rhs)
    mismatches = sorted(
        (q, y)
        for (y, q) in keys
        if lhs.get((y, q), Fraction(0)) != rhs.get((y, q), Fraction(0))
    )
    report = {"order": order, "equal": not mismatches}
    if mismatches:
        q, y = mismatches[0]
        report["first_mismatch"] = {
            "q_power": q,
            "y_power": y,
            "lhs": str(lhs.get((y, q), Fraction(0))),
            "rhs": str(rhs.get((y, q), Fraction(0))),
        }
    return report


def brst_character(order: int) -> dict:
    """Two-variable Euler character of the sl2 principal BRST complex.

    chi_V has factors 1/[(1 - y^{-1} q^{n-1})(1 - q^n)(1 - y q^{n+1})] and
    chi_F contributes (1 - y^{-1} q^{n-1})(1 - y q^n); the product telescopes
    by exact factor cancellation to (1 - y q) prod 1/(1 - q^n).  Returns the
    cancelled factor lists, the two-variable expansion, and the y -> 1 limit.
    """
    den, num = Counter(), Counter()
    for n in range(1, order + 2):
        den.update([(-1, n - 1), (0, n), (1, n + 1)])
        num.update([(-1, n - 1), (1, n)])
    common = num & den
    num, den = num - common, den - common
    # factors (1 - y^a q^m) with m > order are 1 at this truncation
    num = {k: v for k, v in num.items() if k[1] <= order}
    den = {k: v for k, v in den.items() if k[1] <= order}

    telescoped = num == {(1, 1): 1} and all(
        y == 0 and 1 <= q <= order for (y, q) in den
    )
    if any(y != 0 for y, _ in den):
        raise QSeriesError("unexpected y-dependent factor after cancellation")
    ymin = sum(min(y, 0) * k for (y, _), k in num.items())
    ymax = sum(max(y, 0) * k for (y, _), k in num.items())
    steps = [((y, q), False) for (y, q), k in sorted(num.items()) for _ in range(k)]
    steps += [((0, q), True) for (_, q), k in sorted(den.items()) for _ in range(k)]
    two_var = _box((ymax - ymin + 1, order + 1), (-ymin, 0), 1, steps)

    y1 = eta_like_product([(2, -1, 1)], order)
    return {
        "telescoped": telescoped,
        "numerator_factors": dict(num),
        "two_var": _dense_terms(two_var, ymin),
        "y1_limit": y1,
        "order": order,
    }


def principal_w_weights(rs: RootSystem) -> list[int]:
    """Conformal weights m_i + 1 of the principal W-algebra generators."""
    return [m + 1 for m in rs.exponents]


def w_vacuum_character(gen_weights: Sequence[int], order: int) -> QSeries:
    """``prod_i prod_{n >= d_i} (1 - q^n)^{-1}`` truncated at ``order``."""
    if any(d < 1 for d in gen_weights):
        raise QSeriesError("generator weights must be >= 1")
    return eta_like_product([(d, -1, 1) for d in gen_weights], order)


# -- numeric theta functions -----------------------------------------------------


@dataclass(frozen=True)
class ThetaSpec:
    """Positive-definite lattice with a rational Gram matrix and a coset shift.

    Coordinates refer to the lattice basis: a point is mu + n for integer n,
    with (a, b) = a^T G b.
    """

    gram: tuple[tuple[Fraction, ...], ...]
    shift: tuple[Fraction, ...]

    def __post_init__(self):
        g = np.array([[float(x) for x in row] for row in self.gram])
        if not np.allclose(g, g.T):
            raise QSeriesError("Gram matrix must be symmetric")
        if np.linalg.eigvalsh(g).min() <= 0:
            raise QSeriesError("Gram matrix must be positive definite")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @staticmethod
    def root_lattice(rs: RootSystem, shift=None) -> "ThetaSpec":
        n = rs.rank
        g = tuple(
            tuple(rs.bilinear(rs.simple_roots[i].weight, rs.simple_roots[j].weight) for j in range(n))
            for i in range(n)
        )
        return ThetaSpec(g, tuple(Fraction(c) for c in (shift or [0] * n)))


def _lattice_points(g: np.ndarray, shift: np.ndarray, radius2: float):
    """Integer points n with (n+shift, n+shift) <= radius2 (Fincke-Pohst).

    With g = L L^T the norm is |L^T v|^2; coordinates are fixed from the
    last down, each bounded by the remaining radius.
    """
    ell = g.shape[0]
    lt = np.linalg.cholesky(g).T  # upper triangular

    def solve(level, acc, rem):
        # acc[i] = sum_{j > level} lt[i, j] (x_j + shift_j)
        c = lt[level, level]
        center = -acc[level] / c - shift[level]
        span = math.sqrt(max(rem, 0.0)) / abs(c)
        for x in range(math.ceil(center - span - 1e-12), math.floor(center + span + 1e-12) + 1):
            t = c * (x + shift[level]) + acc[level]
            rem2 = rem - t * t
            if rem2 < -1e-9:
                continue
            if level == 0:
                yield [x]
            else:
                acc2 = acc + lt[:, level] * (x + shift[level])
                for rest in solve(level - 1, acc2, rem2):
                    yield rest + [x]

    return [np.array(combo) for combo in solve(ell - 1, np.zeros(ell), radius2)]


def _tail_bound(g: np.ndarray, shift: np.ndarray, im_tau: float, x_im_norm: float, radius: float) -> float:
    """Upper bound on the dropped mass outside G-norm ``radius``."""
    lam_min = float(np.linalg.eigvalsh(g).min()) * 0.999
    mu_norm = math.sqrt(float(shift @ g @ shift)) if shift.any() else 0.0
    total = 0.0
    k = max(int(math.floor(radius)), 1)
    while True:
        box = (k + 1 + mu_norm) / math.sqrt(lam_min)
        count = (2 * math.floor(box) + 3) ** g.shape[0]
        term = count * math.exp(2 * math.pi * x_im_norm * (k + 1) - math.pi * im_tau * k * k)
        total += term
        if term < 1e-18 * max(total, 1.0) and k > radius + 5:
            return total
        if k > radius + 10_000:
            return float("inf")
        k += 1


def theta_eval(
    spec: ThetaSpec,
    tau: complex,
    x: Sequence[complex],
    eps: float,
) -> dict:
    """``sum_{v in shift + Z^l} e^{2 pi i (v, x)} e^{pi i tau (v, v)}`` to within eps.

    Lattice-ball summation; the report carries the radius used and the
    certified Gaussian tail bound.  An eps the tail bound cannot reach
    within radius^2 ``MAX_THETA_RADIUS2`` is a :class:`QSeriesError`.
    """
    if tau.imag <= 0:
        raise QSeriesError("Im tau must be positive")
    g = np.array([[float(c) for c in row] for row in spec.gram])
    shift = np.array([float(c) for c in spec.shift])
    xv = np.array([complex(c) for c in x])
    x_im = np.imag(xv)
    x_im_norm = math.sqrt(max(float(x_im @ g @ x_im), 0.0))
    radius2 = max(4.0, 8.0 / tau.imag)
    while True:
        tail = _tail_bound(g, shift, tau.imag, x_im_norm, math.sqrt(radius2))
        if tail < eps:
            break
        radius2 *= 1.8
        if radius2 > MAX_THETA_RADIUS2:
            raise QSeriesError(
                f"cannot certify eps={eps} within radius^2 cap {MAX_THETA_RADIUS2}"
            )
    pts = _lattice_points(g, shift, radius2)
    val = 0j
    for n in pts:
        v = n + shift
        norm = float(v @ g @ v)
        phase = complex(v @ g @ xv)
        val += cmath.exp(2j * math.pi * phase + 1j * math.pi * tau * norm)
    return {
        "value": val,
        "radius2": radius2,
        "tail_bound": tail,
        "points": len(pts),
    }


def dual_coset_representatives(spec: ThetaSpec) -> list[tuple[Fraction, ...]]:
    """Representatives in [0, 1)^n of L*/L for an integral Gram matrix, sorted.

    L* = G^{-1} Z^n, so L*/L is the group the columns of G^{-1} generate
    modulo Z^n: the closure of {0} under adding them mod 1.
    """
    if _int_numerators(spec.gram)[1] != 1:
        raise QSeriesError("dual cosets need an integral Gram matrix")
    # integer numerators over one common denominator: exact, and sorting them
    # sorts the fractions
    ginv, den = _int_numerators(_gauss_jordan(spec.gram)[0])
    gens = [tuple(col) for col in (ginv % den).T.tolist()]
    todo = [(0,) * spec.rank]
    reps = set(todo)
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((x + y) % den for x, y in zip(v, g))
            if w not in reps:
                reps.add(w)
                todo.append(w)
    return [tuple(Fraction(x, den) for x in v) for v in sorted(reps)]


def modular_transform_check(
    spec: ThetaSpec, tau: complex, x: Sequence[complex], eps: float
) -> dict:
    """Verify theta(-1/tau, x/tau) against the S-transformed sum.

    ``theta_{mu}(-1/tau, x/tau) = (-i tau)^{l/2} e^{pi i |x|^2 / tau}
    sum_{mu'} |L*/L|^{-1/2} e^{-2 pi i (mu, mu')} theta_{mu'}(tau, x)``.
    """
    ell = spec.rank
    g = np.array([[float(c) for c in row] for row in spec.gram])
    xv = np.array([complex(c) for c in x])
    tau2 = -1 / tau
    lhs = theta_eval(spec, tau2, list(xv / tau), eps)["value"]
    reps = dual_coset_representatives(spec)
    mu = np.array([float(c) for c in spec.shift])
    total = 0j
    for rep in reps:
        mup = np.array([float(c) for c in rep])
        pairing = float(mu @ g @ mup)
        term = theta_eval(ThetaSpec(spec.gram, rep), tau, list(xv), eps)["value"]
        total += cmath.exp(-2j * math.pi * pairing) * term
    pref = (-1j * tau) ** (ell / 2) / math.sqrt(len(reps))
    x_norm = complex(xv @ g @ xv)
    rhs = pref * cmath.exp(1j * math.pi * x_norm / tau) * total
    residual = abs(lhs - rhs)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "cosets": len(reps),
        "passed": residual < max(10 * eps, 1e-12) + 1e-9,
    }
