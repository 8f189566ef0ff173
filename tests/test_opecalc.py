import itertools
import random
from fractions import Fraction

import pytest
import sympy

from affw.opecalc import (
    ConformalAlgebra,
    Field,
    LambdaPolynomial,
    OpeError,
    UnsupportedDepthError,
    affine,
    affine_sl,
    brst_charge_sl2,
    brst_nilpotency_abelian,
    charged_fermions,
    fermion_current,
    heisenberg,
    register_algebra,
    sugawara_sl,
    tensor_algebra,
    virasoro_test,
    _skew,
)


@pytest.fixture(scope="module")
def heis():
    return heisenberg()


@pytest.fixture(scope="module")
def sl2():
    return affine_sl(2)


def test_heisenberg_bracket(heis):
    h = heis.gen("h")
    br = heis.bracket(h, h)
    assert br.coefficient(0).is_zero()
    assert br.coefficient(1).equal(heis.one())


def test_virasoro_from_heisenberg(heis):
    h = heis.gen("h")
    L = heis.normal_product(h, h).scaled(Fraction(1, 2))
    lh = heis.bracket(L, h)
    assert lh.coefficient(0).equal(h.derivative())
    assert lh.coefficient(1).equal(h)
    ll = heis.bracket(L, L)
    assert ll.coefficient(0).equal(L.derivative())
    assert ll.coefficient(1).equal(L.scaled(2))
    assert ll.coefficient(2).is_zero()
    assert ll.coefficient(3).equal(heis.one(Fraction(1, 12)))
    rep = virasoro_test(heis, L)
    assert rep.ok and sympy.cancel(rep.central_charge - 1) == 0


def test_shifted_virasoro_central_charge():
    alg = ConformalAlgebra("heis_beta", parameters=("beta",))
    alg.add_generator("h")
    alg.set_bracket("h", "h", LambdaPolynomial(alg, {1: alg.one()}))
    alg.finalize()
    beta = alg.param("beta")
    h = alg.gen("h")
    B = alg.normal_product(h, h).scaled(Fraction(1, 2)) + h.derivative().scaled(beta)
    rep = virasoro_test(alg, B)
    assert rep.ok
    assert sympy.cancel(rep.central_charge - (1 - 12 * beta**2)) == 0


def test_virasoro_failure_reports_residual(heis):
    rep = virasoro_test(heis, heis.gen("h"))
    assert not rep.ok
    assert rep.central_charge is None
    assert rep.residuals


def test_fermion_brackets():
    alg = charged_fermions(1)
    phi, phis = alg.gen("phi"), alg.gen("phis")
    assert alg.bracket(phi, phis).coefficient(0).equal(alg.one())
    assert alg.bracket(phis, phi).coefficient(0).equal(alg.one())
    assert alg.bracket(phi, phi).is_zero()
    assert alg.bracket(phis, phis).is_zero()
    # :aa: for an odd generator normalises via the skew rules
    assert alg.normal_product(phis, phis).is_zero()


def test_affine_sl2_brackets(sl2):
    e, f, h = sl2.gen("E12"), sl2.gen("E21"), sl2.gen("H1")
    k = sl2.param("k")
    bef = sl2.bracket(e, f)
    assert bef.coefficient(0).equal(h)
    assert bef.coefficient(1).equal(sl2.one(k))
    bhh = sl2.bracket(h, h)
    assert bhh.coefficient(0).is_zero()
    assert bhh.coefficient(1).equal(sl2.one(2 * k))
    bhe = sl2.bracket(h, e)
    assert bhe.coefficient(0).equal(e.scaled(2))
    assert bhe.coefficient(1).is_zero()


def test_skew_symmetry_random_fields(sl2):
    rng = random.Random(1)
    gens = [g.name for g in sl2.generators]

    def random_field():
        f = sl2.zero_field()
        for _ in range(rng.randint(1, 2)):
            kind = rng.random()
            if kind < 0.5:
                f = f + sl2.gen(rng.choice(gens), rng.randint(0, 1)).scaled(rng.randint(1, 3))
            else:
                a = sl2.gen(rng.choice(gens))
                b = sl2.gen(rng.choice(gens))
                try:
                    f = f + sl2.normal_product(a, b)
                except UnsupportedDepthError:
                    pass
        return f

    for _ in range(8):
        a, b = random_field(), random_field()
        try:
            lhs = sl2.bracket(b, a)
            rhs = sl2.bracket(a, b).substitute_minus_lambda_del().scaled(-1)
        except UnsupportedDepthError:
            continue
        diff = lhs + rhs.scaled(-1)
        assert diff.is_zero(), f"skew failed for\n a={a}\n b={b}"


def test_sesquilinearity_random(sl2):
    rng = random.Random(5)
    gens = [g.name for g in sl2.generators]
    for _ in range(8):
        a = sl2.gen(rng.choice(gens), rng.randint(0, 1))
        b = sl2.gen(rng.choice(gens), rng.randint(0, 1))
        lhs = sl2.bracket(a.derivative(), b)
        rhs = sl2.bracket(a, b).shift_mul_lambda(1).scaled(-1)
        assert (lhs + rhs.scaled(-1)).is_zero()
        lhs2 = sl2.bracket(a, b.derivative())
        rhs2 = sl2.bracket(a, b).apply_del_plus_lambda(1)
        assert (lhs2 + rhs2.scaled(-1)).is_zero()


def test_derivation_property_of_normal_product(sl2):
    e, f = sl2.gen("E12"), sl2.gen("E21")
    no = sl2.normal_product(e, f)
    lhs = no.derivative()
    rhs = sl2.normal_product(e.derivative(), f) + sl2.normal_product(e, f.derivative())
    assert lhs.equal(rhs)


def test_quasi_commutativity(sl2):
    e, f = sl2.gen("E12"), sl2.gen("E21")
    lhs = sl2.normal_product(e, f) - sl2.normal_product(f, e)
    rhs = sl2.bracket(e, f).integrate_minus_del_to_zero()
    assert lhs.equal(rhs)


def test_sugawara_sl2():
    alg, L = sugawara_sl(2)
    rep = virasoro_test(alg, L)
    k = alg.param("k")
    assert rep.ok
    assert sympy.cancel(rep.central_charge - 3 * k / (k + 2)) == 0
    # generators are primary of weight one
    for name in ("E12", "E21", "H1"):
        g = alg.gen(name)
        br = alg.bracket(L, g)
        assert br.coefficient(0).equal(g.derivative())
        assert br.coefficient(1).equal(g)
        assert all(br.coefficient(p).is_zero() for p in br.coeffs if p >= 2)


def test_sugawara_sl3():
    alg, L = sugawara_sl(3)
    rep = virasoro_test(alg, L)
    k = alg.param("k")
    assert rep.ok
    assert sympy.cancel(rep.central_charge - 8 * k / (k + 3)) == 0
    assert sympy.limit(rep.central_charge, k, sympy.oo) == 8


def test_sugawara_sl5():
    alg, L = sugawara_sl(5)
    k = alg.param("k")
    # the prefactor 1/(2(k + 5)) is stored once, as L's content
    assert sympy.cancel(L.content.as_expr() - 1 / (2 * (k + 5))) == 0
    assert all(x.is_ground for x in L.terms.values())
    rep = virasoro_test(alg, L)
    assert rep.ok
    assert sympy.cancel(rep.central_charge - 24 * k / (k + 5)) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_sugawara_currents_are_primary(n):
    # [L_la J] = del J + la J for every generator J of sl_n
    alg, L = sugawara_sl(n)
    for g in alg.generators:
        j = alg.gen(g.name)
        br = alg.bracket(L, j)
        assert set(br.coeffs) == {0, 1}, g.name
        assert br.coefficient(0).equal(j.derivative()), g.name
        assert br.coefficient(1).equal(j), g.name


def test_affine_preset_requires_type_A():
    from affw.liealg import CartanType, build_root_system

    a2 = build_root_system(CartanType.parse("A2"))
    alg = affine(a2)
    assert len(alg.generators) == 8
    b2 = build_root_system(CartanType.parse("B2"))
    with pytest.raises(OpeError):
        affine(b2)


def test_fermion_current_defining_sl2():
    E = [[0, 1], [0, 0]]
    F = [[0, 0], [1, 0]]
    H = [[1, 0], [0, -1]]
    alg, (fe, ff, fh) = fermion_current([E, F, H])
    b = alg.bracket(fe, ff)
    assert b.coefficient(0).equal(fh)
    assert b.coefficient(1).equal(alg.one())
    bh = alg.bracket(fh, fh)
    assert bh.coefficient(0).is_zero()
    assert bh.coefficient(1).equal(alg.one(2))
    # F^h acts on F^e by the adjoint bracket [h, e] = 2e
    bhe = alg.bracket(fh, fe)
    assert bhe.coefficient(0).equal(fe.scaled(2))


def test_fermion_current_zero_rep():
    alg, (f0,) = fermion_current([[[0, 0], [0, 0]]])
    assert f0.is_zero()


def test_fermion_current_dimension_mismatch():
    with pytest.raises(OpeError):
        fermion_current([[[0, 1], [0, 0]], [[0]]])


def test_brst_sl2_nilpotent():
    alg, q = brst_charge_sl2()
    rep = brst_nilpotency_abelian(alg, q)
    assert rep["nilpotent"]


def test_brst_negative_control():
    alg, _ = brst_charge_sl2()
    bad = alg.normal_product(alg.gen("H1"), alg.gen("phis"))
    rep = brst_nilpotency_abelian(alg, bad)
    assert not rep["nilpotent"]
    assert rep["residual"]


def test_brst_p_alone():
    alg, _ = brst_charge_sl2()
    rep = brst_nilpotency_abelian(alg, alg.gen("phis"))
    assert rep["nilpotent"]


def test_register_algebra_and_skew_check():
    alg = register_algebra(
        "user_heis",
        [("a", 0)],
        {("a", "a"): {1: [("1", "c")]}},
        parameters=("c",),
    )
    assert alg.jacobi_unverified
    a = alg.gen("a")
    br = alg.bracket(a, a)
    assert br.coefficient(1).equal(alg.one(alg.param("c")))
    # a lambda^2 self-bracket of an even generator violates skew-symmetry
    with pytest.raises(OpeError):
        register_algebra("bad", [("a", 0)], {("a", "a"): {2: [("1", 1)]}})


def test_unsupported_depth_error():
    alg = affine_sl(2)
    e, f = alg.gen("E12"), alg.gen("E21")
    no = alg.normal_product(e, f)
    with pytest.raises(UnsupportedDepthError):
        alg.normal_product(no, e)


def test_tensor_algebra_cross_brackets_vanish():
    v = affine_sl(2)
    f = charged_fermions(1)
    alg = tensor_algebra(v, f)
    assert alg.bracket(alg.gen("E12"), alg.gen("phi")).is_zero()
    assert alg.bracket(alg.gen("phis"), alg.gen("H1")).is_zero()
    # factor brackets survive
    b = alg.bracket(alg.gen("E12"), alg.gen("E21"))
    assert b.coefficient(0).equal(alg.gen("H1"))


@pytest.mark.parametrize(
    "build, offender",
    [
        (lambda: register_algebra("u", [("a", 0)], {("a", "b"): {0: [("1", 1)]}}), "'b'"),
        (lambda: register_algebra("u", [("a", 0)], {("a", "a"): {1: [("z", 1)]}}), "'z'"),
        (lambda: register_algebra("u", [("a", 0)], {("a", "a"): {1: [("1", "c")]}}), "parameter.*c"),
        (lambda: register_algebra("u", [("a", 0)], {("a", "a"): {1: [("1", "c*d")]}},
                                  parameters=("c",)), "parameter.*d"),
        (lambda: register_algebra("u", [("a", 0)], {("a", "a"): {1: [("1", sympy.sqrt(2))]}}),
         "sqrt\\(2\\)"),
        (lambda: register_algebra("u", [("a", 0)], {("a", "a"): {1: [("1", 0.5)]}}), "0.5"),
        (lambda: register_algebra("u", [("a", 0)], {("a", "a"): {1: [("1", "1/0")]}}), "1/0"),
        (lambda: heisenberg().gen("x"), "'x'"),
        (lambda: affine_sl(2).param("level"), "'level'"),
    ],
    ids=["table-key", "table-target", "undeclared", "partly-undeclared", "irrational",
         "float", "zero-denominator", "gen", "param"],
)
def test_user_tables_and_names_raise_ope_error(build, offender):
    with pytest.raises(OpeError, match=offender):
        build()


def test_tensor_algebra_with_different_parameters():
    v = affine_sl(2)
    h = ConformalAlgebra("heis_beta", parameters=("beta",))
    h.add_generator("h")
    h.set_bracket("h", "h", LambdaPolynomial(h, {1: h.one(h.param("beta"))}))
    h.finalize()
    alg = tensor_algebra(v, h)
    assert list(alg.parameters) == ["k", "beta"]
    for factor in (v, h):
        names = [g.name for g in factor.generators]
        for a in names:
            for b in names:
                got = alg.bracket(alg.gen(a), alg.gen(b))
                assert str(got) == str(factor.bracket(factor.gen(a), factor.gen(b))), (a, b)
    assert alg.bracket(alg.gen("h"), alg.gen("E12")).is_zero()
    # both parameters meet in one field: c(sl2 Sugawara) + c(:hh:/(2 beta))
    _, L = sugawara_sl(2, alg)
    hh = alg.normal_product(alg.gen("h"), alg.gen("h")).scaled(1 / (2 * alg.param("beta")))
    rep = virasoro_test(alg, L + hh)
    k = alg.param("k")
    assert rep.ok and sympy.cancel(rep.central_charge - 3 * k / (k + 2) - 1) == 0


def test_printed_coefficients_are_cancelled_sympy_forms():
    alg = ConformalAlgebra("two_params", parameters=("k", "beta"))
    k, beta = alg.param("k"), alg.param("beta")
    # the field reduces this to 3/(-4*beta*k**2 - 6): same function, other sign
    f = alg.one(1 / (-4 * beta * k**2 / 3 - 2))
    assert str(f) == "(-3/(4*beta*k**2 + 6))*1"
    assert f.equal(alg.one(-3 / (4 * beta * k**2 + 6)))


def test_rational_coefficients_print_as_before():
    # strings printed by the engine when every coefficient was one reduced
    # element of Q(params); the content-plus-polynomial fields must match them
    alg = register_algebra(
        "rat", [("a", 0), ("b", 0)],
        {("a", "b"): {0: [("b", "1/(k**2-1)")], 1: [("1", "(k+1)/(k-1)")]},
         ("a", "a"): {1: [("1", "(k+1)/(k-1)")]}},
        parameters=("k",))
    a, b = alg.gen("a"), alg.gen("b")
    assert str(alg.bracket(a, b)) == "(1/(k**2 - 1))*b + lambda^1 * [((k + 1)/(k - 1))*1]"
    assert str(alg.bracket(b, a)) == "(-1/(k**2 - 1))*b + lambda^1 * [((k + 1)/(k - 1))*1]"
    x = alg.normal_product(a, b) + a.derivative().scaled("1/(k**2-1)")
    assert str(alg.bracket(x, a)) == (
        "((k + 1)/(k - 1))*T a + ((k + 1)/(k - 1))*T b + (-1/(k**2 - 1))*:a b: + "
        "lambda^1 * [((k + 1)/(k - 1))*a + ((k + 1)/(k - 1))*b] + "
        "lambda^2 * [(-1/(k**2 - 2*k + 1))*1]")
    assert str(alg.bracket(a, x)) == (
        "(1/(k**2 - 1))*:a b: + lambda^1 * [((k + 1)/(k - 1))*a + ((k + 1)/(k - 1))*b] + "
        "lambda^2 * [(1/(k**2 - 2*k + 1))*1]")
    assert str(x.scaled(Fraction(-3, 7))) == "(-3/(7*k**2 - 7))*T a + (-3/7)*:a b:"
    sl2 = affine_sl(2)
    y = sl2.normal_product(sl2.gen("E12"), sl2.gen("E21")).scaled(Fraction(-3, 7))
    assert str(y + sl2.gen("H1", 1)) == "(1)*T H1 + (-3/7)*:E12 E21:"
    # Sugawara sl2 plus :hh:/(2 beta): a sum of fields with different contents
    h = ConformalAlgebra("heis_beta", parameters=("beta",))
    h.add_generator("h")
    h.set_bracket("h", "h", LambdaPolynomial(h, {1: h.one(h.param("beta"))}))
    h.finalize()
    t = tensor_algebra(affine_sl(2), h)
    _, L = sugawara_sl(2, t)
    T = L + t.normal_product(t.gen("h"), t.gen("h")).scaled(1 / (2 * t.param("beta")))
    assert str(T) == ("(-1/(2*k + 4))*T H1 + (1/(k + 2))*:E12 E21: + (1/(4*k + 8))*:H1 H1: + "
                      "(1/(2*beta))*:h h:")
    assert str(t.bracket(T, T)) == (
        "(-1/(2*k + 4))*T^2 H1 + (1/(k + 2))*:E12 T E21: + (1/(2*k + 4))*:H1 T H1: + "
        "(1/beta)*:h T h: + (1/(k + 2))*:T E12 E21: + lambda^1 * [(-1/(k + 2))*T H1 + "
        "(2/(k + 2))*:E12 E21: + (1/(2*k + 4))*:H1 H1: + (1/beta)*:h h:] + "
        "lambda^3 * [((2*k + 1)/(6*k + 12))*1]")
    assert str(t.bracket(T, t.gen("E12"))) == "(1)*T E12 + lambda^1 * [(1)*E12]"


# -- the two invariants: zero-free containers, one complete skew table --------------


def test_containers_never_store_zero(sl2):
    x = sl2.normal_product(sl2.gen("E12"), sl2.gen("E21")) + sl2.gen("H1", 1).scaled(3)
    assert (x + x.scaled(-1)).terms == {}
    assert (x - x).terms == {}
    assert x.scaled(0).terms == {}
    assert Field(sl2, {("1",): 0}).terms == {}
    assert Field(sl2, {("1",): 1, ("d", 0, 0): 0}).terms == {("1",): sl2.K.one}
    poly = LambdaPolynomial(sl2, {0: x, 1: x.scaled(0), 2: Field(sl2)})
    assert list(poly.coeffs) == [0]
    assert (poly + poly.scaled(-1)).coeffs == {}
    br = sl2.bracket(sl2.gen("E12"), sl2.gen("E12"))
    assert br.coeffs == {} and br.is_zero()


def _same(p, q):
    return (p + q.scaled(-1)).is_zero()


@pytest.mark.parametrize(
    "build",
    [heisenberg, lambda: charged_fermions(2), lambda: affine_sl(2), lambda: affine_sl(3),
     lambda: tensor_algebra(affine_sl(2), charged_fermions(1))],
    ids=["heisenberg", "fermions", "affine_sl2", "affine_sl3", "tensor"],
)
def test_finalized_table_is_complete_and_skew(build):
    alg = build()
    gens = alg.generators
    assert set(alg.table) == set(itertools.product(range(len(gens)), repeat=2))
    for (i, j), poly in alg.table.items():
        assert _same(alg.table[(j, i)], _skew(poly, gens[i].parity, gens[j].parity)), (i, j)


def test_register_algebra_fills_the_other_order_by_skew():
    even = register_algebra("even", [("a", 0), ("b", 0)],
                            {("a", "b"): {0: [("b", 1)], 1: [("1", "c")]}}, parameters=("c",))
    b, c = even.gen("b"), even.param("c")
    # [b_la a] = -[a_{-la-del} b] = -b + c la
    assert _same(even.table[(1, 0)], LambdaPolynomial(even, {0: b.scaled(-1), 1: even.one(c)}))
    assert str(even.bracket(b, even.gen("a"))) == "(-1)*b + lambda^1 * [(c)*1]"
    odd = register_algebra("odd", [("psi", 1), ("chi", 1)], {("psi", "chi"): {0: [("1", 1)]}})
    # odd pair: [chi_la psi] = +[psi_{-la-del} chi] = 1
    assert _same(odd.table[(1, 0)], LambdaPolynomial(odd, {0: odd.one()}))
    assert odd.table[(0, 0)].is_zero() and odd.table[(1, 1)].is_zero()
    # a bracket set after finalize would leave the skew image stale
    with pytest.raises(OpeError, match="finalized"):
        odd.set_bracket("chi", "psi", LambdaPolynomial(odd, {0: odd.one(2)}))
