import itertools
import random
import time
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest

from affw.affine import (
    AffineDataError,
    _dominant_by_level,
    _regular,
    _subregular_eta,
    alpha_star,
    enumerate_P_plus_k,
    make_admissible_level,
    principal_labels,
    subregular_labels,
)
from affw.liealg import CartanType, Weight, _int_numerators, build_root_system
from affw.qseries import _coroot_matrix, _translations
from test_liealg import ALL_TYPES
from oracles import (
    dominant_by_level_recursive,
    principal_labels_fraction,
    subregular_eta_by_filter,
    subregular_labels_fraction,
)


@pytest.fixture(scope="module")
def a1():
    return build_root_system(CartanType.parse("A1"))


@pytest.fixture(scope="module")
def a2():
    return build_root_system(CartanType.parse("A2"))


def test_admissible_level_validation(a1):
    lv = make_admissible_level(a1, 3, 4)
    assert lv.k == Fraction(3, 4) - 2
    with pytest.raises(AffineDataError):
        make_admissible_level(a1, 2, 4)  # gcd != 1
    with pytest.raises(AffineDataError):
        make_admissible_level(a1, 1, 3)  # p < h_check
    e8 = build_root_system(CartanType.parse("E8"))
    lv8 = make_admissible_level(e8, 30, 29)
    assert lv8.k == Fraction(30, 29) - 30


def _translate(rs, base: Weight, kh, stride: int, coeffs) -> tuple[Fraction, Weight]:
    """(delta-drop, finite part) of t_beta on base + kh Lambda_0 for
    beta = stride sum_i coeffs_i alpha_i_check, back in Fractions."""
    ints, den = _int_numerators([*base.coords, Fraction(kh) * stride])
    c = np.array([coeffs], dtype=np.int64)
    drops, translates = _translations(_coroot_matrix(rs), ints[:-1], int(ints[-1]), stride, c)
    return Fraction(int(drops[0]), den), Weight(tuple(Fraction(int(x), den) for x in translates[0]))


def test_affine_translation_basics(a1):
    # t_0 fixes lam_hat + rho_hat, whatever the stride
    shifted = Weight.of(1) + a1.weyl_vector
    for stride in (1, 2):
        assert _translate(a1, shifted, Fraction(3, 2) + 2, stride, (0,)) == (0, shifted)

    # t_{alpha_check}(Lambda_0) = Lambda_0 + alpha - delta for sl2
    alpha = a1.simple_roots[0].weight
    assert _translate(a1, a1.zero_weight(), 1, 1, (1,)) == (1, alpha)

    # level-0 weight: t_alpha(lam) = lam - (alpha, lam) delta
    lam0 = Weight.of(3)
    assert _translate(a1, lam0, 0, 1, (1,)) == (a1.bilinear(alpha, lam0), lam0)

    # the stride scales the coroot coefficients
    assert _translate(a1, shifted, Fraction(1, 2), 3, (1,)) == _translate(a1, shifted, Fraction(1, 2), 1, (3,))


def test_affine_translation_composes(a1, a2):
    # t_a t_b = t_{a+b}: the drops add along the way, the finite parts agree
    rng = random.Random(3)
    for rs in (a1, a2):
        for _ in range(10):
            a = [rng.randint(-2, 2) for _ in range(rs.rank)]
            b = [rng.randint(-2, 2) for _ in range(rs.rank)]
            lam = Weight.of(*(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rs.rank)))
            kh = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            stride = rng.randint(1, 3)
            drop_b, fin_b = _translate(rs, lam, kh, stride, b)
            drop_a, fin_ab = _translate(rs, fin_b, kh, stride, a)
            both = _translate(rs, lam, kh, stride, [x + y for x, y in zip(a, b)])
            assert both == (drop_b + drop_a, fin_ab)


def test_P_plus_k(a1, a2):
    labels = enumerate_P_plus_k(a1, 1)
    assert labels == [a1.zero_weight(), a1.fundamental_weight(0)]
    for k in range(5):
        assert len(enumerate_P_plus_k(a1, k)) == k + 1
    assert len(enumerate_P_plus_k(a2, 1)) == 3
    assert enumerate_P_plus_k(a2, 2)[0] == a2.zero_weight()


def test_enumerate_regular(a2):
    assert len(_regular(a2, 4)) == 3
    assert _regular(a2, 2) == []
    a1 = build_root_system(CartanType.parse("A1"))
    for p in range(2, 7):
        assert len(_regular(a1, p)) == p - 1
    e8 = build_root_system(CartanType.parse("E8"))
    assert _regular(e8, 30) == [e8.weyl_vector.coords]
    # shifted-weight consistency
    for nu in _regular(a2, 5):
        mu = Weight.of(*nu) - a2.weyl_vector
        assert mu.is_dominant()
        assert a2.level(mu) <= 5 - a2.dual_coxeter


@pytest.mark.parametrize("name", ALL_TYPES)
def test_flat_enumeration_matches_the_recursive_one(name):
    """The bounds ``enumerate_P_plus_k``, ``_regular`` and both halves of
    ``_subregular_eta`` pass give the recursive generator's list, in its
    lex order, at levels around the dual Coxeter number."""
    rs = build_root_system(CartanType.parse(name))
    n, h = rs.rank, rs.dual_coxeter

    def same(bound, lower=None, upper=None):
        got = _dominant_by_level(rs, bound, lower, upper)
        assert got == list(dominant_by_level_recursive(rs, bound, lower, upper))
        return len(got)

    assert [same(k) for k in range(4)][:2] == [1, 1 + rs.comarks.count(1)]
    assert [same(q, (1,) * n) for q in range(h - 2, h + 2)][:2] == [0, 1]
    for q in range(h - 2, h + 2):
        for i in range(n):
            lower = tuple(int(j != i) for j in range(n))
            same(q - 1, lower, tuple(q * x for x in lower))


def test_subregular_eta_a2():
    a2 = build_root_system(CartanType.parse("A2"))
    out = _subregular_eta(a2, 2)
    assert {c for c, _ in out} == {(1, 0), (0, 1), (1, 1)}
    for c, wall in out:
        quantities = list(c) + [2 - int(a2.level(Weight.of(*c)))]
        assert quantities.count(0) == 1


def test_subregular_eta_a1():
    a1 = build_root_system(CartanType.parse("A1"))
    for q in range(1, 6):
        weights = sorted(c[0] for c, _ in _subregular_eta(a1, q))
        assert weights == [0, q]


def test_subregular_eta_brute_force_d4():
    """Golden count cross-checked by direct lattice enumeration."""
    rs = build_root_system(CartanType.parse("D4"))
    q = 5
    brute = 0
    comarks = rs.comarks
    for coords in itertools.product(range(q + 1), repeat=4):
        level = sum(c * m for c, m in zip(coords, comarks))
        if level > q:
            continue
        walls = [c for c in coords] + [q - level]
        if walls.count(0) == 1:
            brute += 1
    assert len(_subregular_eta(rs, q)) == brute


def test_subregular_eta_d6_golden():
    rs = build_root_system(CartanType.parse("D6"))
    assert len(_subregular_eta(rs, 9)) == 16
    assert len(_subregular_eta(rs, 8)) == 3


def test_principal_label_counts(a1):
    for (p, q), n in {(2, 3): 1, (3, 4): 3, (4, 5): 6}.items():
        labs = principal_labels(make_admissible_level(a1, p, q))
        assert len(labs) == n
        # vacuum (rho, rho) first
        assert labs[0].nu == a1.weyl_vector and labs[0].eta == a1.weyl_vector
        # invariants: strict dominance and level bounds
        for l in labs:
            assert all(c >= 1 for c in l.nu.coords) and a1.level(l.nu) < p
            assert all(c >= 1 for c in l.eta.coords) and a1.level(l.eta) < q


def test_principal_labels_without_eta_return_before_the_nu_walk():
    # q = 3 < h_check = 6 leaves no regular eta; the million-level nu set is never built
    d4 = build_root_system(CartanType.parse("D4"))
    start = time.perf_counter()
    assert principal_labels(make_admissible_level(d4, 1000001, 3)) == []
    assert time.perf_counter() - start < 1


def test_principal_identification_matches_minimal_model(a1):
    # classes are (r, s) ~ (p - r, q - s)
    p, q = 4, 5
    labs = principal_labels(make_admissible_level(a1, p, q))
    pairs = {(int(l.nu.coords[0]), int(l.eta.coords[0])) for l in labs}
    full = {(r, s) for r in range(1, p) for s in range(1, q)}
    for r, s in full:
        assert ((r, s) in pairs) != ((p - r, q - s) in pairs)


def test_alpha_star():
    d4 = build_root_system(CartanType.parse("D4"))
    node = alpha_star(d4).root_coords.index(1) + 1
    assert node == 2
    d6 = build_root_system(CartanType.parse("D6"))
    assert alpha_star(d6).root_coords.index(1) + 1 == 4
    e8 = build_root_system(CartanType.parse("E8"))
    assert alpha_star(e8).root_coords.index(1) + 1 == 4
    a3 = build_root_system(CartanType.parse("A3"))
    assert alpha_star(a3).root_coords.index(1) + 1 == 2
    with pytest.raises(AffineDataError):
        alpha_star(build_root_system(CartanType.parse("A1")))
    with pytest.raises(AffineDataError):
        alpha_star(build_root_system(CartanType.parse("B3")))


def test_subregular_labels_d6():
    rs = build_root_system(CartanType.parse("D6"))
    labs = subregular_labels(make_admissible_level(rs, 11, 8))
    assert len(labs) == 3
    # representative rule: on the trivalent wall where available
    assert {l.wall_id for l in labs} <= {3, 4}
    # vacuum class of (rho, rho - varpi_*) first
    assert labs[0].nu == rs.weyl_vector
    assert labs[0].eta == rs.weyl_vector - rs.fundamental_weight(3)


def test_subregular_labels_e8_count():
    rs = build_root_system(CartanType.parse("E8"))
    labs = subregular_labels(make_admissible_level(rs, 30, 29))
    assert len(labs) == 44
    assert all(l.nu == rs.weyl_vector for l in labs)


def test_subregular_rejects_bad_types():
    b3 = build_root_system(CartanType.parse("B3"))
    with pytest.raises(AffineDataError):
        subregular_labels(make_admissible_level(b3, 5, 4))
    a1 = build_root_system(CartanType.parse("A1"))
    with pytest.raises(AffineDataError):
        subregular_labels(make_admissible_level(a1, 3, 4))


def test_label_invariants_subregular():
    rs = build_root_system(CartanType.parse("D4"))
    lv = make_admissible_level(rs, 7, 5)
    for l in subregular_labels(lv):
        assert all(c >= 1 for c in l.nu.coords) and rs.level(l.nu) < lv.p
        walls = [int(c) for c in l.eta.coords] + [lv.q - int(rs.level(l.eta))]
        assert walls.count(0) == 1
        if l.wall_id == 0:
            assert rs.level(l.eta) == lv.q
        else:
            assert l.eta.coords[l.wall_id - 1] == 0


SUBREGULAR_GRID = [
    ("D4", 7, 5), ("D4", 9, 4), ("D4", 11, 7), ("D5", 9, 7), ("D6", 11, 8), ("A3", 5, 3),
    ("A3", 4, 3), ("A5", 7, 5), ("E6", 13, 10), ("E7", 19, 15), ("E8", 30, 29),
]
PRINCIPAL_GRID = [
    ("A1", 11, 10), ("A1", 13, 12), ("A2", 8, 5), ("A2", 7, 4), ("A3", 5, 4), ("B2", 7, 5),
    ("G2", 7, 6), ("C3", 7, 6), ("D4", 7, 6),
]


def _level(name, p, q):
    return make_admissible_level(build_root_system(CartanType.parse(name)), p, q)


def _eta_by_filter(rs, q):
    """The oracle's (eta, wall) pairs with eta as a coordinate tuple, the walls
    and their order unchanged."""
    return [(eta.coords, wall) for eta, wall in subregular_eta_by_filter(rs, q)]


@pytest.mark.parametrize("name,p,q", SUBREGULAR_GRID)
def test_subregular_labels_match_the_fraction_path(name, p, q):
    lv = _level(name, p, q)
    assert repr(subregular_labels(lv)) == repr(subregular_labels_fraction(lv))
    rs = lv.root_system
    assert _subregular_eta(rs, q) == _eta_by_filter(rs, q)


def test_subregular_eta_matches_the_filter_at_every_small_level():
    for name in ("A1", "A2", "A3", "B2", "G2", "C3", "D4", "F4"):
        rs = build_root_system(CartanType.parse(name))
        for q in range(0, 10):
            assert _subregular_eta(rs, q) == _eta_by_filter(rs, q)


@pytest.mark.parametrize("name,p,q", PRINCIPAL_GRID)
def test_principal_labels_match_the_fraction_path(name, p, q):
    lv = _level(name, p, q)
    assert repr(principal_labels(lv)) == repr(principal_labels_fraction(lv))


def test_subregular_labels_e8_do_no_fraction_arithmetic():
    """The class keys and the eta walls run on ints; the old Fraction path
    made 17,256 subtractions and 16,896 multiplications here."""
    lv = _level("E8", 30, 29)
    with patch.object(Fraction, "__sub__", autospec=True, side_effect=Fraction.__sub__) as sub, \
            patch.object(Fraction, "__mul__", autospec=True, side_effect=Fraction.__mul__) as mul:
        labels = subregular_labels(lv)
    coords = sum(len(l.nu.coords) + len(l.eta.coords) for l in labels)
    assert len(labels) == 44
    assert sub.call_count + mul.call_count <= coords
    assert all(type(c) is Fraction for l in labels for c in l.nu.coords + l.eta.coords)
