import math
import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
import sympy

from affw.liealg import (
    CartanType,
    LieAlgebraError,
    Weight,
    WeylElement,
    _coroot_table,
    _gauss_jordan,
    _int_numerators,
    _positive_root_closure,
    build_root_system,
    weyl_blocks,
    weyl_stream,
)

from oracles import (
    dominant_word_by_generator,
    gauss_jordan_fraction,
    positive_roots_by_strings,
    reflect_coords_by_generator,
    simple_reflection_matrices,
    weyl_blocks_by_matrices,
    weyl_group_by_reflections,
    weyl_stream_by_rows,
)

CLASSICAL = {
    # type: (|Delta_+|, |W|, h_check, exponents)
    "A1": (1, 2, 2, [1]),
    "A2": (3, 6, 3, [1, 2]),
    "A3": (6, 24, 4, [1, 2, 3]),
    "A4": (10, 120, 5, [1, 2, 3, 4]),
    "A5": (15, 720, 6, [1, 2, 3, 4, 5]),
    "B2": (4, 8, 3, [1, 3]),
    "B3": (9, 48, 5, [1, 3, 5]),
    "C3": (9, 48, 4, [1, 3, 5]),
    "D4": (12, 192, 6, [1, 3, 3, 5]),
    "D5": (20, 1920, 8, [1, 3, 4, 5, 7]),
    "D6": (30, 23040, 10, [1, 3, 5, 5, 7, 9]),
    "G2": (6, 12, 4, [1, 5]),
    "F4": (24, 1152, 9, [1, 5, 7, 11]),
    "E6": (36, 51840, 12, [1, 4, 5, 7, 8, 11]),
    "E7": (63, 2903040, 18, [1, 5, 7, 9, 11, 13, 17]),
    "E8": (120, 696729600, 30, [1, 7, 11, 13, 17, 19, 23, 29]),
}


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_classical_data(name):
    npos, worder, hck, exps = CLASSICAL[name]
    rs = build_root_system(CartanType.parse(name))
    assert len(rs.positive_roots) == npos
    assert rs.weyl_order == worder
    assert rs.dual_coxeter == hck
    assert list(rs.exponents) == sorted(exps)
    assert sum(2 * m + 1 for m in rs.exponents) == rs.dimension


ALL_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(2, 8)]
    + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_reflection_closure_matches_alpha_strings(name):
    a = CartanType.parse(name).cartan_matrix()
    assert _positive_root_closure(a) == positive_roots_by_strings(a)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_one_elimination_gives_inverse_and_det(name):
    t = CartanType.parse(name)
    a = t.cartan_matrix()
    ainv, pivots = _gauss_jordan(a)
    n = t.rank
    assert all(
        sum(a[i][k] * ainv[k][j] for k in range(n)) == int(i == j) for i in range(n) for j in range(n)
    )
    det = {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n}.get(t.family, 1)
    assert all(p > 0 for p in pivots)
    assert math.prod(pivots) == det == build_root_system(t).index_P_mod_Q


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_int_numerators_are_exact_over_the_least_denominator(name):
    rs = build_root_system(CartanType.parse(name))
    for values in (rs.gram, rs.cartan_inverse):
        ints, den = _int_numerators(values)
        assert ints.dtype == np.int64 and ints.shape == (rs.rank, rs.rank)
        assert [[Fraction(x, den) for x in row] for row in ints.tolist()] == [list(row) for row in values]
        assert math.gcd(den, *ints.ravel().tolist()) == 1  # no smaller den


def test_int_numerators_of_mixed_and_empty_input():
    ints, den = _int_numerators([(Fraction(1, 2), 3), (-1, Fraction(5, 6))])
    assert den == 6 and ints.tolist() == [[3, 18], [-6, 5]]
    ints, den = _int_numerators([])
    assert den == 1 and ints.size == 0


def _elimination_inputs():
    """Every matrix the library inverts: the Cartan matrices, the A2 root and
    weight lattice Grams as theta functions take them (Fraction entries, the
    second not integral), and the sl3 and sl4 trace-form Grams of the
    Sugawara vector."""
    from affw.opecalc import _sl_structure
    from affw.qseries import ThetaSpec

    a2 = build_root_system(CartanType.parse("A2"))
    out = {name: CartanType.parse(name).cartan_matrix() for name in ALL_TYPES}
    out["theta A2 roots"] = ThetaSpec.root_lattice(a2).gram
    out["theta A2 weights"] = ThetaSpec(a2.gram, (Fraction(0),) * 2).gram
    for nn in (3, 4):
        cartan = _sl_structure(nn)[1][1 - nn:]
        out[f"sl{nn} trace form"] = [[int(np.trace(a @ b)) for b in cartan] for a in cartan]
    return out


def test_elimination_matches_the_fraction_oracle():
    """Inverse and pivots equal plain Fraction Gauss-Jordan, every one a
    Fraction, and pivot k is the ratio of the leading minors of sizes k + 1
    and k."""
    for name, m in _elimination_inputs().items():
        inverse, pivots = _gauss_jordan(m)
        want_inverse, want_pivots = gauss_jordan_fraction(m)
        assert (inverse, pivots) == (want_inverse, want_pivots), name
        assert all(type(x) is Fraction for row in inverse for x in row), name
        assert all(type(x) is Fraction for x in pivots), name
        minors = [Fraction(1)] + [Fraction(str(sympy.Matrix([row[:k] for row in m[:k]]).det()))
                                  for k in range(1, len(m) + 1)]
        assert pivots == [b / a for a, b in zip(minors, minors[1:])], name


def test_zero_pivot_is_refused():
    # nonsingular, but its leading 1x1 minor vanishes and no rows are swapped
    with pytest.raises(LieAlgebraError, match="leading minor of size 1"):
        _gauss_jordan([[0, 1], [1, 0]])


@pytest.mark.parametrize(
    "bad", [("A", 0), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("D", 2), ("B", 1), ("A", 33)]
)
def test_invalid_types(bad):
    with pytest.raises(LieAlgebraError):
        CartanType(*bad)


@pytest.mark.parametrize("name", ["A\u06f2", "A\u0662", "D\uff14", "A", "X2", "A-1", "A2.0", ""])
def test_unparsable_type_names(name):
    # non-ASCII digits (Extended Arabic-Indic, Arabic-Indic, fullwidth) included
    with pytest.raises(LieAlgebraError, match="cannot parse"):
        CartanType.parse(name)
    assert CartanType.parse(" a2 ") == CartanType("A", 2)


def test_highest_root_normalisation():
    for name in ("A2", "B2", "C3", "G2", "F4", "D5"):
        rs = build_root_system(CartanType.parse(name))
        theta = rs.highest_root.weight
        assert rs.bilinear(theta, theta) == 2


def test_a1_examples():
    rs = build_root_system(CartanType.parse("A1"))
    assert len(rs.positive_roots) == 1
    assert rs.highest_root.weight == rs.simple_roots[0].weight
    assert rs.dual_coxeter == 2


def test_a2_examples():
    rs = build_root_system(CartanType.parse("A2"))
    assert rs.weyl_vector == rs.fundamental_weight(0) + rs.fundamental_weight(1)
    assert rs.bilinear(rs.weyl_vector, rs.weyl_vector) == 2
    # (varpi_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2
    for i in range(2):
        for j in range(2):
            lhs = rs.bilinear(rs.fundamental_weight(i), rs.simple_roots[j].weight)
            want = rs.simple_root_norms_half[j] if i == j else 0
            assert lhs == want


def test_e8_lattice_index():
    rs = build_root_system(CartanType.parse("E8"))
    assert rs.index_P_mod_Q == 1
    assert rs.index_P_mod_Qcheck == 1


def test_rho_is_half_sum_of_positive_roots():
    for name in ("A3", "B3", "D4", "G2"):
        rs = build_root_system(CartanType.parse(name))
        total = rs.zero_weight()
        for r in rs.positive_roots:
            total = total + r.weight
        assert Fraction(1, 2) * total == rs.weyl_vector


def test_simple_reflection_permutes_positive_roots():
    for name in ("A2", "B2", "D4"):
        rs = build_root_system(CartanType.parse(name))
        pos = {r.weight.coords for r in rs.positive_roots}
        for i in range(rs.rank):
            images = {rs.reflect_coords(i, r.weight.coords) for r in rs.positive_roots}
            alpha = rs.simple_roots[i].weight
            expected = (pos - {alpha.coords}) | {(-alpha).coords}
            assert images == expected


def test_weyl_stream_counts_and_signs():
    for name in ("A1", "A2", "B2", "A3", "G2", "D4", "F4", "E6"):
        rs = build_root_system(CartanType.parse(name))
        seen = set()
        sign_sum = 0
        for w in weyl_stream(rs):
            assert w.matrix not in seen
            seen.add(w.matrix)
            sign_sum += w.length_parity
        assert len(seen) == rs.weyl_order
        assert sign_sum == 0


def test_weyl_stream_reentrant():
    rs = build_root_system(CartanType.parse("A2"))
    s1 = weyl_stream(rs)
    first = next(s1)
    s2 = list(weyl_stream(rs))
    assert len(s2) == 6
    assert first.matrix == s2[0].matrix


def test_length_parity_is_determinant_on_roots():
    for name in ("B2", "A3", "G2", "D4"):
        rs = build_root_system(CartanType.parse(name))
        a = np.array(rs.cartan_matrix, dtype=float)
        for w in weyl_stream(rs):
            # det of the action on root-basis coordinates equals the parity
            m = np.array(w.matrix, dtype=float)
            root_action = np.linalg.inv(a.T) @ m @ a.T
            assert round(np.linalg.det(root_action)) == w.length_parity


def test_weyl_stream_matches_the_generated_group():
    """The walk against a closure of the simple reflections under products."""
    for name in ("A3", "B3", "G2", "D4"):
        rs = build_root_system(CartanType.parse(name))
        group = weyl_group_by_reflections(rs.cartan_matrix)
        stream = {np.array(w.matrix, dtype=np.int64).tobytes(): w.length_parity for w in weyl_stream(rs)}
        assert stream == group


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "D5", "F4", "G2", "E6"]
)
def test_weyl_stream_is_the_per_row_conversion(name):
    """Elements built from the shared coroot rows are the walk's matrices,
    parities and order exactly, with Python int entries."""
    rs = build_root_system(CartanType.parse(name))
    stream = list(weyl_stream(rs))
    assert stream == list(weyl_stream_by_rows(rs))
    assert all(type(w) is WeylElement for w in stream)
    assert all(type(x) is int for w in stream for row in w.matrix for x in row)


@pytest.mark.parametrize(
    "name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "D5", "E6", "F4", "G2"]
)
def test_weyl_blocks_invert_the_matrix_walk(name):
    """Block for block, the walk on coroot indices has the matrix walk's
    points and depths, and each of its matrices is the inverse of the one
    the matrix walk carries, exactly in int64."""
    rs = build_root_system(CartanType.parse(name))
    eye = np.eye(rs.rank, dtype=np.int64)
    count = 0
    for new, old in zip(weyl_blocks(rs), weyl_blocks_by_matrices(rs), strict=True):
        assert new.depth == old.depth
        assert new.points.dtype == new.matrices.dtype == np.int64
        assert np.array_equal(new.points, old.points)
        assert (new.matrices @ old.matrices == eye).all()
        count += len(new.points)
    assert count == rs.weyl_order


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2"])
def test_weyl_rows_are_coroots(name):
    """Where roots and coroots differ, every row of every element is
    +-a positive root of the transposed Cartan matrix, and the table the
    walk indexes holds exactly those rows, with alpha_r_check at row
    n - 1 - r, where the walk starts the identity."""
    rs = build_root_system(CartanType.parse(name))
    n = rs.rank
    coroots = positive_roots_by_strings(tuple(zip(*rs.cartan_matrix)))
    table = set(coroots) | {tuple(-x for x in r) for r in coroots}
    assert {row for w in weyl_stream(rs) for row in w.matrix} == table
    rows, _ = _coroot_table(rs)
    assert sorted(map(tuple, rows.tolist())) == sorted(table)
    assert rows[n - 1 :: -1].tolist() == np.eye(n, dtype=np.int64).tolist()


@pytest.mark.parametrize("name", ["B3", "C3", "F4", "G2", "D4"])
def test_simple_reflections_permute_the_coroot_table(name):
    """``perm[k]`` is s_k on the coroot table: an involution that swaps
    alpha_k_check and -alpha_k_check, keeps every other positive coroot
    positive, and sends each coroot to the image the alpha-string roots of
    A^T give, s_k(beta) = beta - <alpha_k, beta> alpha_k_check.  The
    non-simply-laced types tell pairing with Cartan rows from columns."""
    rs = build_root_system(CartanType.parse(name))
    n, a = rs.rank, rs.cartan_matrix
    positive = positive_roots_by_strings(tuple(zip(*a)))
    coroots, perm = _coroot_table(rs)
    rows = list(map(tuple, coroots.tolist()))
    assert rows == positive + [tuple(-x for x in r) for r in positive]
    npos = len(positive)
    assert perm.shape == (n, 2 * npos)
    for k in range(n):
        p = perm[k]
        assert (p[p] == np.arange(2 * npos)).all()
        simple = rows.index(tuple(int(j == k) for j in range(n)))
        assert p[simple] == simple + npos and p[simple + npos] == simple
        others = [i for i in range(npos) if i != simple]
        assert all(p[i] < npos for i in others)
        for i, beta in enumerate(rows):
            pairing = sum(a[k][j] * beta[j] for j in range(n))
            image = tuple(b - pairing * int(j == k) for j, b in enumerate(beta))
            assert rows[p[i]] == image


def test_weyl_stream_walks_past_rank_27():
    """The walk carries coroot indices, so no row key bounds the rank: B, C
    and D from rank 28 on stream like every other type, element for element
    the per-row conversion of the walk's blocks."""
    for name in ("B28", "D28", "B32"):
        rs = build_root_system(CartanType.parse(name))
        assert list(islice(weyl_stream(rs), 600)) == list(islice(weyl_stream_by_rows(rs), 600))


def test_weyl_blocks_e7_count_and_parity():
    rs = build_root_system(CartanType.parse("E7"))
    count = parity_sum = 0
    for blk in weyl_blocks(rs):
        count += len(blk.points)
        parity_sum += blk.parity * len(blk.points)
    assert count == rs.weyl_order == 2_903_040
    assert parity_sum == 0


def test_reflection_involution_and_sign_multiplicativity():
    rng = random.Random(11)
    for name in ("A3", "B3", "D4"):
        rs = build_root_system(CartanType.parse(name))
        gens = simple_reflection_matrices(rs.cartan_matrix)
        parity = {np.array(w.matrix, dtype=np.int64).tobytes(): w.length_parity for w in weyl_stream(rs)}
        sample = list(parity)
        for _ in range(20):
            w = np.frombuffer(rng.choice(sample), dtype=np.int64).reshape(rs.rank, rs.rank)
            i = rng.randrange(rs.rank)
            lam = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(rs.rank))
            assert rs.reflect_coords(i, lam) == tuple(gens[i] @ np.array(lam, dtype=object))
            assert rs.reflect_coords(i, rs.reflect_coords(i, lam)) == lam
            assert parity[(gens[i] @ w).tobytes()] == -parity[w.tobytes()]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2", "D4"])
def test_dominant_word_reaches_the_chamber(name):
    """The result is dominant, replaying the word reproduces it, and the word
    is reduced: its length is the number of positive roots on which the
    weight is negative (each step at a negative coordinate removes one)."""
    rs = build_root_system(CartanType.parse(name))
    d = rs.simple_root_norms_half
    rng = random.Random(7)
    for _ in range(30):
        lam = tuple(rng.randint(-5, 5) for _ in range(rs.rank))
        top, word = rs.dominant_word(lam)
        assert all(c >= 0 for c in top) and all(type(c) is int for c in top)
        replay = lam
        for i in word:
            assert replay[i] < 0
            replay = rs.reflect_coords(i, replay)
        assert replay == top
        # (lam, alpha) = sum_i c_i d_i lam_i for alpha = sum_i c_i alpha_i
        negative = sum(sum(c * di * x for c, di, x in zip(r.root_coords, d, lam)) < 0
                       for r in rs.positive_roots)
        assert len(word) == negative
    # -rho goes to rho by the longest element
    top, word = rs.dominant_word((-1,) * rs.rank)
    assert top == (1,) * rs.rank and len(word) == len(rs.positive_roots)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_chamber_walk_matches_the_generator_walk(name):
    """``dominant_word`` and ``reflect_coords`` give the generator oracle's
    coordinates, with the same scalar type, and the same word, on integral
    and Fraction weights."""
    rs = build_root_system(CartanType.parse(name))
    rng = random.Random(sum(map(ord, name)))
    for _ in range(12):
        ints = tuple(rng.randint(-6, 6) for _ in range(rs.rank))
        fracs = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rs.rank))
        for lam in (ints, fracs):
            got, want = rs.dominant_word(lam), dominant_word_by_generator(rs, lam)
            assert got == want
            assert list(map(type, got[0])) == list(map(type, want[0]))
            i = rng.randrange(rs.rank)
            got = rs.reflect_coords(i, lam)
            want = reflect_coords_by_generator(rs, i, lam)
            assert got == want and list(map(type, got)) == list(map(type, want))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_rational_fields_hold_fractions(name):
    """The fields typed as Fraction hold Fraction instances, never ints."""
    rs = build_root_system(CartanType.parse(name))
    roots = rs.positive_roots + rs.simple_roots + (rs.highest_root,)
    values = [c for r in roots for c in r.weight.coords] + list(rs.weyl_vector.coords)
    values += [x for m in (rs.gram, rs.cartan_inverse) for row in m for x in row]
    values += list(rs.simple_root_norms_half)
    assert {type(x) for x in values} == {Fraction}


def test_root_coordinate_roundtrip():
    rng = random.Random(5)
    for name in ("A2", "B3", "F4"):
        rs = build_root_system(CartanType.parse(name))
        for _ in range(10):
            lam = Weight.of(*[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rs.rank)])
            rc = rs.weight_to_root(lam)
            assert rs.root_to_weight(rc) == lam


def test_exponents_dimension_crosscheck_d4():
    rs = build_root_system(CartanType.parse("D4"))
    assert list(rs.exponents) == [1, 3, 3, 5]
    assert sum(2 * m + 1 for m in rs.exponents) == 28
