"""Independent oracles used by the test suite only.

Minimal-model S-matrices via sine products, the truncated Clebsch-Gordan
rule for sl2 fusion, the Verlinde formula as a plain einsum, the vacuum rule
on the full candidate scan, fusion-ring isomorphism by trying every
permutation, su(n) quantum dimensions as sine products, brute-force
partition counters, two-variable series products as dict convolutions, the
exact inverse and pivots by Gauss-Jordan elimination on ``Fraction``, the
dominant chamber reached one generator-built reflection at a time, the
positive roots by alpha-string induction, the Weyl group as the closure of
the simple-reflection matrices under products, as the orbit-tree walk
carrying (n, n) matrices and as the walk's blocks converted one matrix row
at a time, the bounded dominant weights by one generator frame per
coordinate, the label sets computed on ``Fraction`` weights by reflecting
every class key and filtering all of P_+^q for the subregular eta, the
Kac-Wakimoto numerator summed one Weyl element at a time on ``Fraction``
weights, the character window divided out on a box of Python ints and read
one cell at a time through ``Fraction`` weights, and the Weyl sums of the
S-matrices as a walk over every element of W into integer buckets, and the
conservative weights by a breadth-first search of a root's W-orbit.
These stay out of the library on purpose: they are the references the
library is checked against.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from affw.affine import (
    AdmissibleLevel,
    PrincipalLabel,
    SubregularLabel,
    alpha_star,
)
from affw.fusion import FusionError, FusionTable, verlinde
from affw.liealg import (
    WEYL_BLOCK_ROWS,
    LieAlgebraError,
    RootSystem,
    Weight,
    WeylBlock,
    _int_numerators,
    weyl_blocks,
    weyl_stream,
)
from affw.modular import SMatrix
from affw.qseries import QSeries, TwoVarCharacter, _binomial, _denominator_steps, _lattice_points


def virasoro_S(p: int, q: int) -> SMatrix:
    """Closed-form minimal model S-matrix on (r, s) labels mod (p-r, q-s).

    Row 0 is the (1, 1) label, declared as the vacuum: in a non-unitary model
    its quantum dimensions are not all positive, and other rows can pass the
    integrality test too.
    """
    labels = []
    seen = set()
    for r in range(1, p):
        for s in range(1, q):
            if (p - r, q - s) in seen:
                continue
            seen.add((r, s))
            labels.append((r, s))
    m = len(labels)
    S = np.zeros((m, m))
    for i, (r, s) in enumerate(labels):
        for j, (rr, ss) in enumerate(labels):
            S[i, j] = (
                2
                * np.sqrt(2 / (p * q))
                * (-1) ** (1 + r * ss + s * rr)
                * np.sin(np.pi * q * r * rr / p)
                * np.sin(np.pi * p * s * ss / q)
            )
    return SMatrix(labels, S.astype(complex), "unitary", {"constructor": "virasoro_oracle", "vacuum": 0})


def virasoro_fusion(p: int, q: int) -> FusionTable:
    return verlinde(virasoro_S(p, q))


def verlinde_einsum(s: np.ndarray, vacuum: int) -> np.ndarray:
    """N_{ab}^c = sum_j S_aj S_bj conj(S_cj) / S_vj, entry by entry."""
    return np.einsum("aj,bj,cj,j->abc", s, s, s.conj(), 1.0 / s[vacuum])


def candidate_vacua_einsum(s: np.ndarray, tol: float = 1e-6) -> list[int]:
    """Rows v (no entry below 1e-12) whose whole Verlinde tensor is non-negative integral."""
    out = []
    for v in range(s.shape[0]):
        if np.abs(s[v]).min() < 1e-12:
            continue
        raw = verlinde_einsum(s, v)
        rounded = np.round(raw.real)
        if np.abs(raw - rounded).max() < tol and rounded.min() > -tol:
            out.append(v)
    return out


def find_vacuum_by_scan(sm: SMatrix):
    """The vacuum rule applied to the full candidate list of
    :func:`candidate_vacua_einsum`: the only candidate; else the only
    candidate with positive quantum dimensions; else the declared vacuum if
    it is a candidate.  Anything else raises the library's error."""
    if sm.normalization != "unitary":
        raise FusionError("find_vacuum needs a unitary S-matrix")
    s = sm.entries
    cands = candidate_vacua_einsum(s)
    if not cands:
        raise FusionError("no vacuum candidate: wrong label set or normalisation")
    if len(cands) == 1:
        return cands[0]
    positive = [
        v for v in cands
        if np.all((s[v] / s[v, v]).real > 1e-9) and np.abs((s[v] / s[v, v]).imag).max() < 1e-9
    ]
    if len(positive) == 1:
        return positive[0]
    declared = sm.provenance.get("vacuum")
    if declared in cands:
        return declared
    raise FusionError(f"vacuum is not unique: candidates {cands}")


def ring_isomorphisms_brute(f1: FusionTable, f2: FusionTable) -> list[list[int]]:
    """Every relabelling s with s(v1) = v2 and N1[a,b,c] = N2[s(a),s(b),s(c)],
    found by trying every permutation that maps vacuum to vacuum."""
    n = f1.size
    if f2.size != n:
        return []
    rest1 = [a for a in range(n) if a != f1.vacuum]
    rest2 = [b for b in range(n) if b != f2.vacuum]
    out = []
    for images in itertools.permutations(rest2):
        perm = [0] * n
        perm[f1.vacuum] = f2.vacuum
        for a, b in zip(rest1, images):
            perm[a] = b
        if np.array_equal(f1.coefficients, f2.coefficients[np.ix_(perm, perm, perm)]):
            out.append(perm)
    return out


def su_quantum_dimension(k: int, dynkin) -> float:
    """Quantum dimension of the su(n) level-k weight with Dynkin labels
    ``dynkin``: prod over i < j of sin(pi m_ij / (k + n)) / sin(pi (j - i) / (k + n)),
    where m_ij = (lam + rho, e_i - e_j) = sum_{i <= l < j} (lam_l + 1)."""
    n = len(dynkin) + 1
    d = 1.0
    for i in range(n - 1):
        for j in range(i + 1, n):
            m = sum(dynkin[i:j]) + j - i
            d *= math.sin(math.pi * m / (k + n)) / math.sin(math.pi * (j - i) / (k + n))
    return d


def is_associative_einsum(n: np.ndarray) -> bool:
    """sum_e N_ab^e N_ec^d == sum_e N_bc^e N_ae^d, on the full n^4 integer tensors."""
    return bool(np.array_equal(np.einsum("abe,ecd->abcd", n, n), np.einsum("bce,aed->abcd", n, n)))


def sl2_fusion_coefficient(k: int, a: int, b: int, c: int) -> int:
    """Truncated Clebsch-Gordan rule at level k (labels are 2*spin)."""
    return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)


def partitions_with_min_part(n: int, min_part: int) -> int:
    def rec(n, lo):
        if n == 0:
            return 1
        return sum(rec(n - part, part) for part in range(lo, n + 1))

    return rec(n, min_part)


def colored_tower_count(n: int, towers: tuple[int, ...]) -> int:
    """Monomials of total degree n from towers {d, d+1, ...} per entry."""
    import functools

    @functools.lru_cache(maxsize=None)
    def rec(n, ti, lo):
        if n == 0:
            return 1
        if ti >= len(towers):
            return 0
        total = rec(n, ti + 1, 0)
        start = max(towers[ti], lo)
        for part in range(start, n + 1):
            total += rec(n - part, ti, part)
        return total

    return rec(n, 0, 0)


def poly2_mul(a: dict, b: dict, order: int) -> dict:
    """Product of {(y, q): coefficient} series, dropping q-powers above ``order``."""
    out: dict[tuple[int, int], Fraction] = {}
    for (ya, qa), ca in a.items():
        for (yb, qb), cb in b.items():
            if qa + qb > order:
                continue
            key = (ya + yb, qa + qb)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def triple_product_lhs(order: int, skip=()) -> dict:
    """prod_{n=1}^{order+1} (1 - y^{-1} q^{n-1})(1 - y q^n) * sum_m y^m q^{m^2}
    through q^order by dict convolution; factors (y, q) in ``skip`` are left out."""
    lhs = {(0, 0): Fraction(1)}
    for n in range(1, order + 2):
        for y, q in ((-1, n - 1), (1, n)):
            if (y, q) not in skip:
                lhs = poly2_mul(lhs, {(0, 0): Fraction(1), (y, q): Fraction(-1)}, order)
    theta = {}
    m = 0
    while m * m <= order:
        theta[(m, m * m)] = Fraction(1)
        if m:
            theta[(-m, m * m)] = Fraction(1)
        m += 1
    return poly2_mul(lhs, theta, order)


def affine_sl3_verma(order: int, depth: int) -> dict:
    """Weight multiplicities of the affine sl3 Verma module M(0), by Kostant partitions.

    Returns {(Dynkin labels of mu, n): count} for n <= order and height(-mu)
    <= depth, where count is the number of ways to write -mu + n delta as a
    sum of positive affine roots.  The parts with delta-degree >= 1 (+-alpha
    + m delta, and m delta twice) are enumerated as multisets; the rest,
    b1 alpha_1 + b2 alpha_2 with b1, b2 >= 0, is a sum of positive finite
    roots in min(b1, b2) + 1 ways.
    """
    finite = [(1, 0), (0, 1), (1, 1)]
    parts = []
    for m in range(1, order + 1):
        parts += [(a, m) for a in finite] + [((-a[0], -a[1]), m) for a in finite]
        parts += [((0, 0), m)] * 2
    loops = {((0, 0), 0): 1}  # (root sum, degree) -> multisets of parts
    for (a1, a2), m in parts:
        grown = dict(loops)
        for ((b1, b2), n), c in loops.items():
            k = 1
            while n + k * m <= order:
                key = ((b1 + k * a1, b2 + k * a2), n + k * m)
                grown[key] = grown.get(key, 0) + c
                k += 1
        loops = grown
    out: dict = {}
    for ((b1, b2), n), c in loops.items():
        for t1 in range(b1, depth - b2 + 1):
            for t2 in range(b2, depth - t1 + 1):
                key = ((t2 - 2 * t1, t1 - 2 * t2), n)
                out[key] = out.get(key, 0) + c * (min(t1 - b1, t2 - b2) + 1)
    return out


def gauss_jordan_fraction(m) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Inverse and pivots of ``m`` by Gauss-Jordan elimination on Fractions,
    without row swaps: each pivot row is divided by its pivot and cleared
    from every other row."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(m)]
    pivots = []
    for col in range(n):
        piv = aug[col][col]
        if piv == 0:
            raise LieAlgebraError(f"leading minor of size {col + 1} vanishes")
        pivots.append(piv)
        aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug], pivots


def reflect_coords_by_generator(rs: RootSystem, i: int, coords: tuple) -> tuple:
    """``s_i`` on fundamental-weight coordinates, one generator term per coordinate."""
    a = rs.cartan_matrix[i]
    ci = coords[i]
    return tuple(c - ci * a[j] for j, c in enumerate(coords))


def dominant_word_by_generator(rs: RootSystem, coords: tuple) -> tuple[tuple, list[int]]:
    """Reflect at the first negative coordinate until none is left; returns
    the dominant coordinates and the reflections used, first to last."""
    word = []
    while True:
        i = next((j for j, c in enumerate(coords) if c < 0), None)
        if i is None:
            return coords, word
        coords = reflect_coords_by_generator(rs, i, coords)
        word.append(i)


def positive_roots_by_strings(a) -> list[tuple[int, ...]]:
    """Positive roots in simple-root coordinates by alpha-string induction.

    ``beta + alpha_i`` is a root iff the alpha_i-string through beta does not
    end at beta, i.e. iff ``p - <beta, alpha_i_check> > 0`` where p is the
    number of steps down the string.  Sorted by (height, coords).
    """
    n = len(a)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    known = set(simple)
    layers = [simple]
    while layers[-1]:
        new: list[tuple[int, ...]] = []
        for beta in layers[-1]:
            for i in range(n):
                pairing = sum(beta[j] * a[j][i] for j in range(n))
                p = 0
                down = beta
                while True:
                    down = tuple(c - int(j == i) for j, c in enumerate(down))
                    if down in known:
                        p += 1
                    else:
                        break
                if p - pairing > 0:
                    up = tuple(c + int(j == i) for j, c in enumerate(beta))
                    if up not in known:
                        known.add(up)
                        new.append(up)
        layers.append(sorted(new))
    return [r for layer in layers for r in sorted(layer)]


def simple_reflection_matrices(a) -> list[np.ndarray]:
    """s_i on fundamental-weight coordinates: ``lam_j -> lam_j - lam_i a_ij``,
    so column i holds ``delta_ji - a_ij``."""
    n = len(a)
    out = []
    for i in range(n):
        m = np.eye(n, dtype=np.int64)
        m[:, i] -= np.array(a[i], dtype=np.int64)
        out.append(m)
    return out


def weyl_group_by_reflections(a) -> dict[bytes, int]:
    """Every element of W as ``{int64 matrix bytes: parity}``, by breadth-first
    closure of the identity under left products with the simple reflections."""
    gens = simple_reflection_matrices(a)
    ident = np.eye(len(a), dtype=np.int64)
    group = {ident.tobytes(): 1}
    frontier = [(ident, 1)]
    while frontier:
        nxt = []
        for w, parity in frontier:
            for s in gens:
                sw = s @ w
                if sw.tobytes() not in group:
                    group[sw.tobytes()] = -parity
                    nxt.append((sw, -parity))
        frontier = nxt
    return group


def weyl_blocks_by_matrices(rs: RootSystem):
    """The walk of :func:`weyl_blocks` carrying (n, n) matrices: the same
    orbit tree, canonical-parent rule and slicing, with the child s_k(v) of
    node v = u(rho) holding the matrix of s_k u, built from u's matrix by the
    column action lam_j -> lam_j - lam_k a_kj.  Block for block it has
    :func:`weyl_blocks`' points and depths, and each matrix is the inverse
    of the one there."""
    a = np.array(rs.cartan_matrix, dtype=np.int64)
    n = rs.rank
    stack = [WeylBlock(np.ones((1, n), np.int64), np.eye(n, dtype=np.int64)[None], 0)]
    while stack:
        blk = stack.pop()
        u = blk.points[:, None, :] - blk.points[:, :, None] * a
        k, b = np.nonzero(((blk.points > 0) & (np.argmax(u < 0, axis=2) == np.arange(n))).T)
        points, m = u[b, k], blk.matrices[b]
        mats = m - a[k][:, :, None] * m[np.arange(len(b)), k][:, None, :]
        for s in reversed(range(0, len(b), WEYL_BLOCK_ROWS)):
            rows = slice(s, s + WEYL_BLOCK_ROWS)
            stack.append(WeylBlock(points[rows], mats[rows], blk.depth + 1))
        yield blk


def weyl_stream_by_rows(rs: RootSystem):
    """``(matrix, parity)`` per row of :func:`weyl_blocks`, each matrix
    converted row by row from its numpy block, in the walk's order."""
    for blk in weyl_blocks(rs):
        for m in blk.matrices.tolist():
            yield tuple(map(tuple, m)), blk.parity


# -- label sets on Fraction weights -------------------------------------------


def dominant_by_level_recursive(rs: RootSystem, bound: int, lower=None, upper=None):
    """Integral weights with ``lower[i] <= lam_i <= upper[i]`` and
    <lam, theta_check> <= bound, in lex order, one nested generator frame
    per coordinate."""
    n = rs.rank
    lower = lower or (0,) * n
    upper = upper or (bound,) * n

    def rec(prefix: list[int], used: int, i: int):
        if i == n:
            yield tuple(prefix)
            return
        top = min(upper[i], (bound - used) // rs.comarks[i])
        for c in range(lower[i], top + 1):
            prefix.append(c)
            yield from rec(prefix, used + c * rs.comarks[i], i + 1)
            prefix.pop()

    yield from rec([], 0, 0)


def p_plus_fraction(rs: RootSystem, k: int) -> list[Weight]:
    """Dominant weights of level <= k as Fraction weights, lex order."""
    rows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for m in rs.comarks:
        rows = [(c + (x,), used + x * m) for c, used in rows for x in range((k - used) // m + 1)]
    return [Weight(tuple(Fraction(x) for x in c)) for c, _ in rows]


def subregular_eta_by_filter(rs: RootSystem, q: int) -> list[tuple[Weight, int]]:
    """The eta of P_+^q with exactly one zero among <eta, alpha_i_check> and
    q - <eta, theta_check>, with that wall's id (0 for the affine wall)."""
    out = []
    for eta in p_plus_fraction(rs, q):
        zero = [i + 1 for i, c in enumerate(eta.coords) if c == 0]
        if rs.level(eta) == q:
            zero.append(0)
        if len(zero) == 1:
            out.append((eta, zero[0]))
    return out


def class_key_fraction(rs: RootSystem, p: int, q: int, nu: Weight, eta: Weight) -> tuple:
    """q*nu - p*eta reflected into the dominant chamber, one Fraction
    reflection at a time at the first negative coordinate."""
    v = tuple(q * a - p * b for a, b in zip(nu.coords, eta.coords))
    while True:
        i = next((j for j, c in enumerate(v) if c < 0), None)
        if i is None:
            return v
        v = tuple(c - v[i] * x for c, x in zip(v, rs.cartan_matrix[i]))


def _regular_fraction(rs: RootSystem, m: int) -> list[Weight]:
    if m < rs.dual_coxeter:
        return []
    return [rs.weyl_vector + lam for lam in p_plus_fraction(rs, m - rs.dual_coxeter)]


def principal_labels_fraction(lv: AdmissibleLevel) -> list[PrincipalLabel]:
    """``affine.principal_labels``: least (eta, nu) per class, vacuum first."""
    rs, p, q = lv.root_system, lv.p, lv.q
    classes: dict[tuple, list] = {}
    etas = _regular_fraction(rs, q)
    for nu in _regular_fraction(rs, p):
        for eta in etas:
            classes.setdefault(class_key_fraction(rs, p, q, nu, eta), []).append((eta.coords, nu.coords))
    rho = rs.weyl_vector
    vacuum_key = class_key_fraction(rs, p, q, rho, rho)
    reps = sorted((key != vacuum_key, *min(pairs)) for key, pairs in classes.items())
    return [PrincipalLabel(Weight(nu), Weight(eta)) for _, eta, nu in reps]


def subregular_labels_fraction(lv: AdmissibleLevel) -> list[SubregularLabel]:
    """``affine.subregular_labels`` with the default alpha_*: per class the
    least (eta, nu) on the alpha_*-wall, else the least overall; the class of
    (rho, rho - varpi_*) first, the rest in class-key order."""
    rs, p, q = lv.root_system, lv.p, lv.q
    star = alpha_star(rs).root_coords.index(1) + 1
    etas = subregular_eta_by_filter(rs, q)
    classes: dict[tuple, list] = {}
    for nu in _regular_fraction(rs, p):
        for eta, wall in etas:
            classes.setdefault(class_key_fraction(rs, p, q, nu, eta), []).append(
                (wall != star, eta.coords, nu.coords, wall)
            )
    rho = rs.weyl_vector
    eta_vac = rho - rs.fundamental_weight(star - 1)
    vacuum_key = class_key_fraction(rs, p, q, rho, eta_vac) if rs.level(eta_vac) <= q else None
    reps = sorted((key != vacuum_key, key, min(members)) for key, members in classes.items())
    return [SubregularLabel(Weight(nu), Weight(eta), wall) for _, _, (_, eta, nu, wall) in reps]


# -- Kac-Wakimoto numerator, one Weyl element at a time --------------------------


def kac_wakimoto_numerator_by_element(rs: RootSystem, lam: Weight, level, stride: int, order: int) -> TwoVarCharacter:
    """``qseries.kac_wakimoto_numerator`` as one ``WeylElement.act`` on
    ``Fraction`` weights and one added ``QSeries`` per element of
    W x (kept translations).

    Each translation t_beta of lam_hat + rho_hat is written out through
    ``rs.bilinear``: the delta-drop (beta, lam + rho) + (k + h) |beta|^2 / 2
    and the finite part lam + rho + (k + h) beta.
    """
    shifted = lam + rs.weyl_vector
    kh = Fraction(level) + rs.dual_coxeter
    norm2 = rs.bilinear(shifted, shifted)
    b = (math.sqrt(float(norm2)) + math.sqrt(float(norm2 + 2 * kh * order))) / float(kh)
    need = Fraction(math.ceil(b * b / 2 + 1), stride * stride)
    coroots = [
        Weight(tuple(Fraction(x) / d for x in row))
        for row, d in zip(rs.cartan_matrix, rs.simple_root_norms_half)
    ]
    gram = np.array([[float(rs.bilinear(u, v)) for v in coroots] for u in coroots])
    ball = _lattice_points(gram, np.zeros(rs.rank), float(2 * need) + 1e-6)
    den = math.lcm((kh * stride * stride).denominator * kh.denominator, (2 * kh).denominator)
    num = TwoVarCharacter(rs.rank)
    for pt in ball:
        beta = sum((stride * int(c) * u for c, u in zip(pt, coroots)), rs.zero_weight())
        drop = rs.bilinear(beta, shifted) + rs.bilinear(beta, beta) / 2 * kh
        if drop > order:
            continue
        translated = shifted + kh * beta
        dd = math.lcm(den, drop.denominator)
        for w in weyl_stream(rs):
            fin = w.act(translated) - shifted
            num.add_term(
                tuple(fin.coords),
                QSeries.make([w.length_parity], int(drop * dd), dd, (order + 1) * dd),
            )
    return num


# -- the character window on a box of Python ints --------------------------------


def divide_by_denominator_object_box(
    rs: RootSystem,
    lam: Weight,
    numerator: TwoVarCharacter,
    order: int,
    depth,
    finite_factor: bool,
) -> TwoVarCharacter:
    """``e^lam * numerator`` divided by the affine Weyl denominator, on a
    ``dtype=object`` box of Python ints read out one cell at a time.

    ``numerator`` maps offsets ``mu - lam`` to integer q-series without
    negative exponents.  The work array ``a[t, x]`` is the coefficient of
    q^{t/den} e^{lam - x/s}, x the simple-root coordinates of lam - mu scaled
    by s; each factor (1 - q^n e^{-gamma})^{-1} is a running sum along
    (n den, s gamma).  Every weight with height(lam - mu) <= ``depth`` and
    every q-exponent up to ``order`` is kept, each cell converted through
    ``root_to_weight`` and ``QSeries.make``.
    """
    den = math.lcm(*(series.den for series in numerator.terms.values()))
    top = order * den
    points = []
    for coords, series in numerator.terms.items():
        beta = tuple(-c for c in rs.weight_to_root(Weight(coords)))
        f = den // series.den
        for e, c in series.terms.items():
            assert e >= 0, "numerator has a term below q^0"
            if e * f <= top:
                points.append((e * f, beta, int(c)))
    xs, s = _int_numerators([beta for _, beta, _ in points])
    keep_height = math.floor(s * depth)
    reach = keep_height + s * order * rs.highest_root.height
    points = [(t, x, c) for (t, _, c), x in zip(points, xs.tolist()) if sum(x) <= reach]
    out = TwoVarCharacter(rs.rank)
    if not points:
        return out
    theta = rs.highest_root.root_coords
    lo = [min(0, *(x[i] for _, x, _ in points)) - s * order * theta[i] for i in range(rs.rank)]
    shape = [top + 1] + [reach - sum(lo) + 1] * rs.rank
    a = np.zeros(shape, dtype=object)
    for t, x, c in points:
        a[(t, *(xi - l for xi, l in zip(x, lo)))] += c
    for n, gamma in _denominator_steps(rs, order, finite_factor):
        _binomial(a, (n * den, *(s * g for g in gamma)), inverse=True)
    height = sum(g + l for g, l in zip(np.indices(shape[1:]), lo))
    for idx in zip(*np.nonzero((height <= keep_height) & (a != 0).any(axis=0))):
        mu = lam - rs.root_to_weight([Fraction(int(i) + l, s) for i, l in zip(idx, lo)])
        out.terms[mu.coords] = QSeries.make(a[(slice(None), *idx)].tolist(), 0, den, top + 1)
    return out


# -- Weyl sums of the S-matrices, walked over all of W ----------------------------

SLICE_TERMS = 1 << 18  # bucket increments per walker slice (bounds temporaries)


class Buckets:
    """Integer buckets of ``sum_w c(w) exp(-2 pi i coef (w(left_i), right_j))``.

    ``acc[i, j, r]`` adds the integer weight c(w) of every element w with
    ``coef * (w(left_i), right_j) = r / den (mod 1)``.  The weight is the
    parity eps(w); with a ``probe`` x it is eps(y) <y(alpha_*), x> on the
    half group ``y(alpha_*) > 0`` and zero elsewhere.  The sum is exact up
    to the final contraction with the roots of unity.
    """

    def __init__(self, rs: RootSystem, left, right, coef: Fraction, probe=None):
        mg, dg = _int_numerators(rs.gram)
        self.den = coef.denominator * dg
        self.left = left
        # (n, m): coef (v, right_j) = v . u[:, j] / den
        self.u = coef.numerator * (mg @ right.T)
        self.acc = np.zeros((len(left), len(right), self.den), dtype=np.int64)
        self.slots = (np.arange(self.acc[..., 0].size) * self.den).reshape(self.acc.shape[:2])
        self.star = None
        if probe is not None:
            star = alpha_star(rs)
            x = np.array([int(c) for c in probe], dtype=np.int64)
            self.w0 = int(np.array(star.root_coords) @ x)
            # the simple-root coordinates of a weight f are f A^{-1}
            to_roots, scale = _int_numerators(rs.cartan_inverse)
            alpha_w = np.array([int(c) for c in star.weight.coords], dtype=np.int64)
            self.star = (alpha_w, to_roots, scale, x)

    def add(self, blk: WeylBlock) -> None:
        mats, weights = blk.matrices, blk.parity
        if self.star is not None:
            alpha_w, to_roots, scale, x = self.star
            roots = (mats @ alpha_w) @ to_roots // scale  # y(alpha_*) on simple roots
            keep = roots.sum(axis=1) > 0
            mats = mats[keep]
            weights = np.repeat(blk.parity * (roots[keep] @ x), self.slots.size)
        # coef (w(left_i), right_j) den = left_i . (w^T u)_j
        dots = self.left @ (mats.transpose(0, 2, 1) @ self.u)
        idx = (dots % self.den + self.slots).ravel()
        if np.isscalar(weights):
            self.acc += weights * np.bincount(idx, minlength=self.acc.size).reshape(self.acc.shape)
        else:
            # bincount adds in float64, exactly: a slice adds a few thousand
            # integers |<y(alpha_*), x>| <= ht(theta) max(x), far below 2**53
            hits = np.bincount(idx, weights, minlength=self.acc.size)
            self.acc += hits.astype(np.int64).reshape(self.acc.shape)

    def value(self, dps: int = 30) -> np.ndarray:
        """The sums as complex128, rounded once from :meth:`exact`."""
        return np.array([[complex(z) for z in row] for row in self.exact(dps)])

    def exact(self, dps: int = 30) -> list:
        """The sums as mpmath complex numbers at ``dps`` digits."""
        with mpmath.workdps(dps):
            table = [mpmath.expjpi(mpmath.mpf(-2 * r) / self.den) for r in range(self.den)]
            w0 = 1 if self.star is None else self.w0
            return [[mpmath.fsum(int(c) * z for c, z in zip(acc, table) if c) / w0 for acc in row]
                    for row in self.acc]


def walk(rs: RootSystem, sums) -> None:
    """Feed every element of W, in slices of at most ``SLICE_TERMS`` bucket
    increments, to each of ``sums``."""
    rows = max(1, min(WEYL_BLOCK_ROWS, SLICE_TERMS // sum(s.slots.size for s in sums)))
    for blk in weyl_blocks(rs):
        for r in range(0, len(blk.points), rows):
            part = WeylBlock(blk.points[r : r + rows], blk.matrices[r : r + rows], blk.depth)
            for s in sums:
                s.add(part)


def alternating_sum_matrix(rs: RootSystem, left, right, coef: Fraction) -> np.ndarray:
    """``A[i,j] = sum_w eps(w) exp(-2 pi i coef (w(left_i), right_j))``, walked."""
    acc = Buckets(rs, left, right, coef)
    walk(rs, [acc])
    return acc.value()


def half_group_kernel_matrix(rs: RootSystem, x_probe, p: int, q: int, left, right) -> np.ndarray:
    """``K[i,j] = sum_{y(alpha_*)>0} eps(y) <y(alpha_*),x>/<alpha_*,x>
    e^{-2 pi i (p/q)(y(left_i), right_j)}``, walked."""
    acc = Buckets(rs, left, right, Fraction(p, q), probe=x_probe)
    walk(rs, [acc])
    return acc.value()


def conservative_weights_by_orbit(lv: AdmissibleLevel, labels) -> tuple[list[Weight], list[int]]:
    """``e_i = y_i(eta_i)`` and eps(y_i), with y_i the word that a breadth-first
    search of the wall root's W-orbit finds first from the wall root to
    alpha_* (from theta to -alpha_* for the affine wall)."""
    rs = lv.root_system
    star = tuple(int(c) for c in alpha_star(rs).weight.coords)

    def word(src: tuple, dst: tuple) -> tuple[int, ...]:
        words, queue = {src: ()}, [src]
        for v in queue:
            if v == dst:
                return words[v]
            for i in range(rs.rank):
                u = rs.reflect_coords(i, v)
                if u not in words:
                    words[u] = words[v] + (i,)
                    queue.append(u)
        raise ValueError("weights are not in one Weyl orbit")

    cons, signs = [], []
    for l in labels:
        src = rs.highest_root if l.wall_id == 0 else rs.simple_roots[l.wall_id - 1]
        y = word(tuple(int(c) for c in src.weight.coords),
                 tuple(-c for c in star) if l.wall_id == 0 else star)
        e = tuple(int(c) for c in l.eta.coords)
        for i in y:
            e = rs.reflect_coords(i, e)
        cons.append(Weight.of(*e))
        signs.append((-1) ** len(y))
    return cons, signs
