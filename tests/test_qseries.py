import math
import pickle
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy

from affw.affine import make_admissible_level
from affw.liealg import CartanType, Weight, WeylElement, build_root_system
from affw.qseries import (
    QSeries,
    QSeriesError,
    ThetaSpec,
    _binomial,
    brst_character,
    dual_coset_representatives,
    eta_like_product,
    irreducible_character,
    kac_wakimoto_numerator,
    modular_transform_check,
    principal_w_weights,
    theta_eval,
    triple_product_check,
    verma_character,
    w_vacuum_character,
)

from oracles import (
    affine_sl3_verma,
    colored_tower_count,
    kac_wakimoto_numerator_by_element,
    partitions_with_min_part,
    poly2_mul,
    triple_product_lhs,
)


@pytest.fixture(scope="module")
def a1():
    return build_root_system(CartanType.parse("A1"))


# -- series arithmetic --------------------------------------------------------


def _random_series(rng, order=12, den=1):
    n = rng.randint(1, 6)
    shift = rng.randint(0, 3)
    coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    return QSeries.make(coeffs, shift, den, order)


def test_series_associativity_random():
    rng = random.Random(42)
    for _ in range(40):
        a, b, c = (_random_series(rng) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.same_series(rhs)


def test_fractional_exponents():
    a = QSeries.make([1, 2], shift=1, den=3, order=9)  # q^{1/3} + 2 q^{2/3}
    b = a * a
    assert b.coefficient(Fraction(2, 3)) == 1
    assert b.coefficient(1) == 4
    assert b.coefficient(Fraction(4, 3)) == 4
    c = a + QSeries.make([1], 0, 2, 8)  # mixed denominators
    assert c.coefficient(0) == 1
    assert c.coefficient(Fraction(1, 3)) == 1


def test_truncation_order_tracking():
    a = QSeries.make([1, 1], 0, 1, 4)       # exact below q^4
    b = QSeries.make([1], 3, 1, 10)         # q^3
    prod = a * b
    assert prod.order == 7                   # 4 + valuation 3
    with pytest.raises(QSeriesError):
        prod.coefficient(8)


# A reference series is (coefficients, order): {Fraction exponent: Fraction}
# without zeros, every exponent below the Fraction order.


def _ref_of(coeffs, order):
    return {e: c for e, c in coeffs.items() if c and e < order}, order


def _ref_add(a, b):
    acc = dict(a[0])
    for e, c in b[0].items():
        acc[e] = acc.get(e, 0) + c
    return _ref_of(acc, min(a[1], b[1]))


def _ref_mul(a, b):
    va, vb = min(a[0], default=a[1]), min(b[0], default=b[1])
    acc = {}
    for ea, ca in a[0].items():
        for eb, cb in b[0].items():
            acc[ea + eb] = acc.get(ea + eb, 0) + ca * cb
    return _ref_of(acc, min(a[1] + vb, b[1] + va))


def _ref_scaled(a, x):
    return _ref_of({e: c * x for e, c in a[0].items()}, a[1])


def _random_pair(rng):
    """A QSeries and its reference: mixed denominators, mostly-zero
    coefficients, and truncation orders that may lie below the support."""
    den = rng.choice([1, 2, 3, 6])
    shift = rng.randint(-3, 6)
    coeffs = [Fraction(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 3)) for _ in range(rng.randint(0, 7))]
    order = rng.randint(shift - 2, shift + 10)
    s = QSeries.make(coeffs, shift, den, order)
    ref = _ref_of({Fraction(shift + i, den): c for i, c in enumerate(coeffs)}, Fraction(order, den))
    return s, ref


def _assert_matches(s, ref):
    assert all(isinstance(c, Fraction) and c != 0 for c in s.terms.values())
    assert all(e < s.order for e in s.terms)
    assert list(s.terms) == sorted(s.terms)
    assert s.coeffs_dict() == ref[0]
    assert s.order_frac == ref[1]
    assert s.valuation() == min(ref[0], default=None)
    assert s.is_zero() == (not ref[0])


def test_series_arithmetic_against_exponent_maps():
    rng = random.Random(7)
    for _ in range(300):
        (a, ra), (b, rb) = _random_pair(rng), _random_pair(rng)
        x = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        zero = QSeries.zero(rng.randint(0, 8), rng.choice([1, 2]))
        rzero = ({}, zero.order_frac)
        _assert_matches(a, ra)
        _assert_matches(a + b, _ref_add(ra, rb))
        _assert_matches(a - b, _ref_add(ra, _ref_scaled(rb, -1)))
        _assert_matches(a - a, _ref_of({}, ra[1]))
        _assert_matches(a + a * -1, _ref_of({}, ra[1]))
        _assert_matches(a + x, _ref_add(ra, ({0: x}, ra[1])))
        _assert_matches(a - x, _ref_add(ra, ({0: -x}, ra[1])))
        _assert_matches(a * b, _ref_mul(ra, rb))
        _assert_matches(a * zero, _ref_mul(ra, rzero))
        _assert_matches(zero * b, _ref_mul(rzero, rb))
        _assert_matches(a * x, _ref_scaled(ra, x))
        _assert_matches(x * a, _ref_scaled(ra, x))
        for e in {*ra[0], Fraction(rng.randint(-4, 12), rng.choice([1, 2, 3, 6]))}:
            if e * a.den % 1:
                assert a.coefficient(e) == 0
            elif e < ra[1]:
                assert a.coefficient(e) == ra[0].get(e, 0)
            else:
                with pytest.raises(QSeriesError):
                    a.coefficient(e)
        below = min(ra[1], rb[1])
        assert a.same_series(b) == (_ref_of(ra[0], below) == _ref_of(rb[0], below))
        assert (a + b - b).same_series(a)
        t = Fraction(rng.randint(-4, 12), rng.choice([1, 2, 3]))
        _assert_matches(a.truncated(t), _ref_of(ra[0], min(ra[1], Fraction(math.ceil(t * a.den), a.den))))
        assert a.truncated(t).same_series(a)


def test_equal_series_hash_equal_and_pickle():
    rng = random.Random(8)
    for _ in range(50):
        a, _ = _random_pair(rng)
        b = QSeries.make([a.coefficient(e) for e in [Fraction(i, a.den) for i in range(-3, a.order)]], -3, a.den, a.order)
        c = QSeries.make([1, -2, 3], -2, a.den, a.order)
        for equal in (b, a + c - c):
            assert equal == a and hash(equal) == hash(a)
        c = pickle.loads(pickle.dumps(a))
        assert c == a and hash(c) == hash(a) and list(c.terms) == list(a.terms)
    assert QSeries.one(3) != QSeries.one(4)
    assert QSeries.one(4) != QSeries.one(8, 2)


# -- eta products and characters -----------------------------------------------


def test_eta_like_products_against_partition_oracles():
    e3 = eta_like_product([(1, -1, 3)], 6)
    # triple-colored partitions
    def colored3(n):
        return colored_tower_count(n, (1, 1, 1))

    assert [e3.coefficient(i) for i in range(7)] == [colored3(i) for i in range(7)]
    assert [e3.coefficient(i) for i in range(4)] == [1, 3, 9, 22]

    e2 = eta_like_product([(2, -1, 1)], 8)
    assert [e2.coefficient(i) for i in range(9)] == [
        partitions_with_min_part(i, 2) for i in range(9)
    ]
    # the empty product is 1
    assert eta_like_product([], 4).same_series(QSeries.one(5))
    # positive powers invert the negative ones
    dir_ = eta_like_product([(1, 1, 2)], 8)
    inv = eta_like_product([(1, -1, 2)], 8)
    assert (dir_ * inv).same_series(QSeries.one(8))


def test_eta_like_product_identities():
    order = 60
    # Euler's pentagonal theorem: prod (1 - q^n) = sum_k (-1)^k q^{k(3k-1)/2}
    euler = [0] * (order + 1)
    for k in range(-order, order + 1):
        e = k * (3 * k - 1) // 2
        if e <= order:
            euler[e] += (-1) ** k
    eta = eta_like_product([(1, 1, 1)], order)
    assert [eta.coefficient(i) for i in range(order + 1)] == euler
    # mult > 1 is the repeated product (QSeries convolution) of the mult = 1 series
    for n0, sign, mult in ((1, 1, 3), (1, -1, 2), (3, -1, 4), (2, 1, 2)):
        single = eta_like_product([(n0, sign, 1)], 30)
        repeated = QSeries.one(31)
        for _ in range(mult):
            repeated = repeated * single
        assert eta_like_product([(n0, sign, mult)], 30).same_series(repeated)
    # the E8 W-algebra vacuum: partitions into towers {d_i, d_i + 1, ...}
    e8 = build_root_system(CartanType.parse("E8"))
    towers = principal_w_weights(e8)
    assert towers == [2, 8, 12, 14, 18, 20, 24, 30]
    wv = w_vacuum_character(towers, 40)
    assert [wv.coefficient(i) for i in range(41)] == [
        colored_tower_count(i, tuple(towers)) for i in range(41)
    ]


def test_verma_character_sl2(a1):
    v = verma_character(a1, a1.zero_weight(), 3, finite_factor=False)
    y1 = v.specialize_y1()
    assert y1.coefficient(1) == 3  # three affine roots at delta-height 1
    ref = eta_like_product([(1, -1, 3)], 3)  # multiplicity dim sl2 = 3
    assert all(y1.coefficient(i) == ref.coefficient(i) for i in range(4))


def test_verma_character_order_zero(a1):
    lam = a1.fundamental_weight(0)
    v = verma_character(a1, lam, 0, depth=0)
    assert list(v.terms) == [lam.coords]
    assert v.terms[lam.coords].coefficient(0) == 1


@pytest.mark.parametrize("order", [3, 4])
def test_verma_character_sl3_kostant_oracle(order):
    """Every multiplicity in the window, depth edge included, is a Kostant count."""
    a2 = build_root_system(CartanType.parse("A2"))
    ch = verma_character(a2, a2.zero_weight(), order)
    got = {}
    for coords, s in ch.terms.items():
        assert s.order_frac == order + 1
        for e, c in s.coeffs_dict().items():
            got[(tuple(int(x) for x in coords), int(e))] = int(c)
    ref = affine_sl3_verma(order, 3 * order)  # the default depth
    assert got == ref
    edge = {mu for mu, _ in ref if -(mu[0] + mu[1]) == 3 * order}  # height(-mu) = depth
    assert edge and edge <= {mu for mu, _ in got}


def test_oversized_character_window_is_refused():
    # E6 at order 1 would need a dense box of billions of cells (tens of GiB)
    e6 = build_root_system(CartanType.parse("E6"))
    with pytest.raises(QSeriesError, match=r"needs \d+ cells, more than the limit of 134217728"):
        verma_character(e6, e6.zero_weight(), 1)


@pytest.mark.parametrize("cartan, cells", [
    ("E6", 3_089_608_832), ("E7", 2_056_143_405_056), ("E8", 7_192_690_496_110_592),
])
def test_oversized_irreducible_window_is_refused_before_the_walk(cartan, cells):
    # for the vacuum the up-front bound is the size of the box itself
    rs = build_root_system(CartanType.parse(cartan))
    start = time.perf_counter()
    with pytest.raises(QSeriesError, match=f"needs {cells} cells"):
        irreducible_character(rs, rs.zero_weight(), 1, 1, 1)
    assert time.perf_counter() - start < 1


def test_binomial_divide_undoes_multiply():
    rng = np.random.default_rng(7)
    a = rng.integers(-9, 10, size=(7, 5, 6))
    # first positive axis 0 (block 3 in 7), 1 (block 2 in 5) and 2 (block 4 in 6)
    for shift in [(3, -1, 2), (0, 2, -1), (-2, 0, 4)]:
        b = a.copy()
        _binomial(b, shift)
        assert not np.array_equal(b, a)
        _binomial(b, shift, inverse=True)
        assert np.array_equal(b, a), shift


def test_specialization_commutes_with_multiplication(a1):
    va = verma_character(a1, a1.zero_weight(), 3, depth=6, finite_factor=False)
    vb = verma_character(a1, a1.fundamental_weight(0), 3, depth=6, finite_factor=False)
    prod = va * vb
    co = (Fraction(1),)
    sa = va.specialize(co)
    sb = vb.specialize(co)
    sp = prod.specialize(co)
    for k, series in sp.items():
        acc = None
        for ka, qa in sa.items():
            kb = k - ka
            if kb in sb:
                term = qa * sb[kb]
                acc = term if acc is None else acc + term
        assert acc is not None and acc.same_series(series)


def test_irreducible_character_level1_lattice_oracle(a1):
    """Frenkel-Kac: L_1(sl2) is the A1 lattice vertex algebra."""
    order = 10
    ch = irreducible_character(a1, a1.zero_weight(), 1, 1, order)
    y1 = ch.specialize_y1()
    oracle = eta_like_product([(1, -1, 1)], order)
    theta = QSeries.zero(order + 1)
    m = 0
    while m * m <= order:
        theta = theta + QSeries.make([1], m * m, 1, order + 1)
        if m:
            theta = theta + QSeries.make([1], m * m, 1, order + 1)
        m += 1
    oracle = oracle * theta
    assert all(y1.coefficient(i) == oracle.coefficient(i) for i in range(order + 1))


def test_irreducible_character_truncation_contract(a1):
    """Only weights with a coefficient at q^e, e <= order, and nothing past it."""
    order = 10
    ch = irreducible_character(a1, a1.zero_weight(), 1, 1, order)
    assert set(ch.terms) == {(Fraction(m),) for m in (0, 2, -2, 4, -4, 6, -6)}
    for s in ch.terms.values():
        assert s.order_frac == order + 1
        assert max(s.coeffs_dict()) <= order


@pytest.mark.parametrize("cartan, level, lam, order", [
    ("A1", 4, (1,), 3), ("A2", 3, (1, 0), 2), ("B2", 3, (0, 1), 2), ("G2", 2, (0, 0), 2),
])
def test_default_depth_holds_every_weight_of_dominant_integral_lam(cartan, level, lam, order):
    """Default window ht(lam - w0 lam) + order ht(theta) loses nothing a deeper one keeps.

    The level is high enough in each case that the deepest weight of the
    window occurs, so one step less would lose it."""
    rs = build_root_system(CartanType.parse(cartan))
    lam = Weight.of(*lam)
    ch = irreducible_character(rs, lam, level, 1, order)
    deep = irreducible_character(rs, lam, level, 1, order, depth=3 * (order + 2) * rs.highest_root.height)
    assert set(ch.terms) == set(deep.terms)
    assert all(s.same_series(deep.terms[key]) for key, s in ch.terms.items())


def test_kw_numerator_matches_l1_form(a1):
    num = kac_wakimoto_numerator(a1, a1.zero_weight(), 1, 1, 12)
    got = {}
    for coords, s in num.terms.items():
        y = coords[0] * Fraction(1, 2)  # y = e^{alpha}
        assert y.denominator == 1
        got[int(y)] = s
    expect: dict[int, dict[int, int]] = {}
    for n in range(-3, 4):
        if 3 * n * n + n <= 12:
            expect.setdefault(3 * n, {})[3 * n * n + n] = 1
        if 3 * n * n - n <= 12:
            expect.setdefault(3 * n - 1, {})[3 * n * n - n] = -1
    assert set(got) == set(expect)
    for y, terms in expect.items():
        assert got[y].coeffs_dict() == {Fraction(q): Fraction(c) for q, c in terms.items()}


def _numerator_cases():
    for cartan, order in [("A1", 8), ("A2", 2), ("A3", 1), ("B2", 2), ("G2", 1), ("D4", 1)]:
        rs = build_root_system(CartanType.parse(cartan))
        yield rs, rs.zero_weight(), 1, 1, order
        yield rs, rs.fundamental_weight(rs.rank - 1), 2, 1, order
    # orders deep enough that the ball keeps non-zero translations
    for cartan, order in [("A1", 12), ("A2", 3), ("B2", 3), ("G2", 3)]:
        rs = build_root_system(CartanType.parse(cartan))
        yield rs, rs.zero_weight(), 1, 1, order
    for cartan, p, q, order in [("A1", 3, 2, 6), ("A2", 4, 3, 2), ("A1", 5, 2, 12), ("A2", 4, 3, 6)]:
        lv = make_admissible_level(build_root_system(CartanType.parse(cartan)), p, q)
        yield lv.root_system, lv.root_system.zero_weight(), lv.k, q, order
    a1 = build_root_system(CartanType.parse("A1"))
    yield a1, Weight.of(Fraction(-1, 2)), Fraction(3, 2) - 2, 2, 4
    yield a1, Weight.of(Fraction(1, 2)), 1, 1, 3  # drops in (1/2)Z over den 1


def test_kw_numerator_matches_the_per_element_sum():
    for rs, lam, level, stride, order in _numerator_cases():
        got = kac_wakimoto_numerator(rs, lam, level, stride, order).terms
        ref = kac_wakimoto_numerator_by_element(rs, lam, level, stride, order).terms
        assert got.keys() == ref.keys(), (rs.cartan_type, lam)
        for key, s in ref.items():
            assert got[key].coeffs_dict() == s.coeffs_dict(), (rs.cartan_type, lam, key)
            assert got[key].order_frac == s.order_frac
            assert got[key].den == s.den


def test_irreducible_character_never_acts_one_weyl_element(monkeypatch):
    def refuse(self, lam):
        raise AssertionError("per-element WeylElement.act")

    monkeypatch.setattr(WeylElement, "act", refuse)
    d4 = build_root_system(CartanType.parse("D4"))
    ch = irreducible_character(d4, d4.zero_weight(), 1, 1, 1)
    assert ch.specialize_y1().coeffs_dict() == {0: 1, 1: 28}


def test_admissible_character_fractional_exponents(a1):
    # k = -2 + 3/2 admissible with q = 2: delta-drops live in (1/2)Z
    ch = irreducible_character(a1, a1.zero_weight() + Weight.of(Fraction(-1, 2)), Fraction(3, 2) - 2, 2, 4)
    assert any(s.den > 1 for s in ch.terms.values())


@pytest.mark.parametrize("lam", [(0,), (Fraction(1, 2),)])
def test_level_below_minus_dual_coxeter_is_refused(a1, lam):
    # also on the default-depth path for weights that are not dominant integral
    with pytest.raises(QSeriesError, match="level \\+ dual Coxeter must be positive"):
        irreducible_character(a1, Weight.of(*lam), Fraction(-5, 2), 1, 2)


@pytest.mark.parametrize("build", [kac_wakimoto_numerator, irreducible_character])
@pytest.mark.parametrize("lam", [(0,), (Fraction(1, 2),)])
def test_negative_order_is_refused(a1, build, lam):
    with pytest.raises(QSeriesError, match="order must be non-negative"):
        build(a1, Weight.of(*lam), 1, 1, -1)


def test_numerator_below_q0_is_refused(a1):
    # lam + rho = -4 omega is not dominant: the translation by alpha drops by -1
    with pytest.raises(QSeriesError):
        irreducible_character(a1, Weight.of(-5), 1, 1, 4)


# -- classical identities --------------------------------------------------------


def test_triple_product_to_order_40():
    rep = triple_product_check(40)
    assert rep["equal"], rep


def test_triple_product_order_zero():
    assert triple_product_check(0)["equal"]


def test_triple_product_lhs_matches_dict_convolution():
    from affw.qseries import _triple_product_lhs

    for order in (0, 1, 2, 7, 40):
        assert _triple_product_lhs(order) == triple_product_lhs(order), order


def test_triple_product_negative_control():
    """Dropping one LHS factor must fail at q^1 (or q^0 y-powers)."""
    order = 6
    lhs = triple_product_lhs(order, skip={(-1, 0)})  # drop the (1 - y^{-1} q^0) factor
    rhs = {}
    for n in range(-3, 4):
        rhs[(3 * n, 3 * n * n + n)] = 1
        rhs[(3 * n - 1, 3 * n * n - n)] = -1
    # the full product matches the RHS; the mutilated one already fails at y^-1 q^0
    assert triple_product_check(order)["equal"]
    assert rhs[(-1, 0)] == -1 and lhs.get((-1, 0), 0) == 0


def test_brst_character():
    rep = brst_character(20)
    assert rep["telescoped"]
    assert rep["numerator_factors"] == {(1, 1): 1}
    y1 = rep["y1_limit"]
    assert [y1.coefficient(i) for i in range(9)] == [
        partitions_with_min_part(i, 2) for i in range(9)
    ]
    # two-variable expansion equals the direct expansion of (1-yq)/eta
    for order in (0, 1, 20, 30):
        direct = {(0, 0): Fraction(1), (1, 1): Fraction(-1)}
        inv_eta = eta_like_product([(1, -1, 1)], order)
        qd = {(0, int(e)): c for e, c in inv_eta.coeffs_dict().items()}
        assert brst_character(order)["two_var"] == poly2_mul(direct, qd, order), order
    assert brst_character(0)["two_var"] == {(0, 0): Fraction(1)}


def test_w_vacuum_characters():
    a1 = build_root_system(CartanType.parse("A1"))
    assert principal_w_weights(a1) == [2]
    vir = w_vacuum_character([2], 8)
    assert [vir.coefficient(i) for i in range(9)] == [
        partitions_with_min_part(i, 2) for i in range(9)
    ]
    # d = [1] is the full eta inverse
    heis = w_vacuum_character([1], 8)
    ref = eta_like_product([(1, -1, 1)], 8)
    assert heis.same_series(ref)
    a2 = build_root_system(CartanType.parse("A2"))
    wv = w_vacuum_character(principal_w_weights(a2), 6)
    assert [wv.coefficient(i) for i in range(7)] == [
        colored_tower_count(i, (2, 3)) for i in range(7)
    ]
    assert [wv.coefficient(i) for i in range(5)] == [1, 0, 1, 2, 3]
    with pytest.raises(QSeriesError):
        w_vacuum_character([0], 4)


# -- theta functions ---------------------------------------------------------------


def test_theta_eval_rank1():
    spec = ThetaSpec(((Fraction(2),),), (Fraction(0),))
    rep = theta_eval(spec, 1j, [0.0], 1e-12)
    direct = sum(math.exp(-2 * math.pi * n * n) for n in range(-12, 13))
    assert abs(rep["value"] - direct) < 1e-12
    assert rep["tail_bound"] < 1e-12
    assert abs(rep["value"].real - 1.00373) < 5e-5


def test_theta_periodicity():
    spec = ThetaSpec(((Fraction(2),),), (Fraction(0),))
    v1 = theta_eval(spec, 1j, [0.37], 1e-12)["value"]
    v2 = theta_eval(spec, 1j, [1.37], 1e-12)["value"]
    assert abs(v1 - v2) < 1e-11


def test_theta_tail_bound_doubling():
    spec = ThetaSpec(((Fraction(2),),), (Fraction(1, 2),))
    r1 = theta_eval(spec, 0.8j, [0.1], 1e-10)
    r2 = theta_eval(spec, 0.8j, [0.1], 1e-14)
    assert abs(r1["value"] - r2["value"]) <= r1["tail_bound"] + 1e-15


def test_theta_eps_unreachable():
    spec = ThetaSpec(((Fraction(2),),), (Fraction(0),))
    with pytest.raises(QSeriesError):
        theta_eval(spec, 0.001j, [0.0], 1e-300, max_radius2=10.0)


@pytest.mark.parametrize("tau", [1j, 0.5j, 0.25 + 1j])
def test_modular_law_a1_a2(tau):
    a1 = build_root_system(CartanType.parse("A1"))
    a2 = build_root_system(CartanType.parse("A2"))
    for rs in (a1, a2):
        spec = ThetaSpec.root_lattice(rs)
        rep = modular_transform_check(spec, tau, [0.0] * rs.rank, 1e-12)
        assert rep["residual"] < 1e-9, rep


def test_modular_law_with_nonzero_x():
    a1 = build_root_system(CartanType.parse("A1"))
    spec = ThetaSpec.root_lattice(a1)
    rep = modular_transform_check(spec, 0.9j, [0.21], 1e-12)
    assert rep["residual"] < 1e-9


def test_modular_law_single_coset_self_duality():
    # Z^2 with the identity Gram is self-dual: one coset
    spec = ThetaSpec(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))), (Fraction(0), Fraction(0)))
    rep = modular_transform_check(spec, 1j, [0.0, 0.0], 1e-12)
    assert rep["cosets"] == 1
    assert rep["residual"] < 1e-9


def test_theta_acceleration_via_modular_law():
    spec = ThetaSpec(((Fraction(2),),), (Fraction(0),))
    tau = 2j
    direct = theta_eval(spec, -1 / tau, [0.0], 1e-13)["value"]
    rep = modular_transform_check(spec, tau, [0.0], 1e-13)
    assert abs(direct - rep["rhs"]) < 1e-10


def _coset_gram(name):
    """Root lattice of a type, 'x2' for twice its Gram, or one of two non-root lattices."""
    if name == "diag(2,6)":
        return ((2, 0), (0, 6))
    if name == "3x3":
        return ((4, 1, 0), (1, 6, 2), (0, 2, 10))
    cartan, _, scale = name.partition(" ")
    rs = build_root_system(CartanType.parse(cartan))
    k = 2 if scale else 1
    return tuple(tuple(k * rs.bilinear(a.weight, b.weight) for b in rs.simple_roots) for a in rs.simple_roots)


ROOT_LATTICES = [f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


@pytest.mark.parametrize("name", ROOT_LATTICES + [f"{t} x2" for t in ROOT_LATTICES] + ["diag(2,6)", "3x3"])
def test_dual_coset_representatives(name):
    g = tuple(tuple(Fraction(x) for x in row) for row in _coset_gram(name))
    n = len(g)
    reps = dual_coset_representatives(ThetaSpec(g, (Fraction(0),) * n))
    assert len(reps) == sympy.Matrix(g).det()
    assert len(set(reps)) == len(reps)
    assert (Fraction(0),) * n in reps
    for x in reps:
        assert all(0 <= c < 1 for c in x)
        assert all(sum(g[i][j] * x[j] for j in range(n)).denominator == 1 for i in range(n))


def test_dual_cosets_need_an_integral_gram():
    spec = ThetaSpec(((Fraction(3, 2), Fraction(0)), (Fraction(0), Fraction(2))), (Fraction(0), Fraction(0)))
    with pytest.raises(QSeriesError, match="integral Gram"):
        dual_coset_representatives(spec)
