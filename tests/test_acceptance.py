"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
Criterion 7 (the full E8 subregular S-matrix and fusion table) takes about
10 s on a 2-vCPU machine.
"""

import math
import time

import numpy as np

from affw import affine, fusion, liealg, modular, qseries
from affw.cli import main as cli_main

from oracles import poly2_mul, sl2_fusion_coefficient, virasoro_fusion


def _report(num, label, t0, budget):
    dt = time.time() - t0
    print(f"criterion {num}: PASS - {label} ({dt:.2f}s, budget {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its time budget: {dt:.1f}s"


def test_criterion_1_root_weyl_data():
    t0 = time.time()
    classical = {
        "A1": (1, 2, 2, [1]),
        "A2": (3, 6, 3, [1, 2]),
        "A3": (6, 24, 4, [1, 2, 3]),
        "A4": (10, 120, 5, [1, 2, 3, 4]),
        "A5": (15, 720, 6, [1, 2, 3, 4, 5]),
        "D4": (12, 192, 6, [1, 3, 3, 5]),
        "D5": (20, 1920, 8, [1, 3, 4, 5, 7]),
        "D6": (30, 23040, 10, [1, 3, 5, 5, 7, 9]),
        "E6": (36, 51840, 12, [1, 4, 5, 7, 8, 11]),
        "E7": (63, 2903040, 18, [1, 5, 7, 9, 11, 13, 17]),
        "E8": (120, 696729600, 30, [1, 7, 11, 13, 17, 19, 23, 29]),
    }
    for name, (npos, worder, hck, exps) in classical.items():
        rs = liealg.build_root_system(liealg.CartanType.parse(name))
        assert len(rs.positive_roots) == npos
        assert rs.weyl_order == worder
        assert rs.dual_coxeter == hck
        assert sorted(rs.exponents) == sorted(exps)
    _report(1, "A1-A5, D4-D6, E6-E8 root/Weyl data exact", t0, 5)


def test_criterion_2_kac_peterson():
    t0 = time.time()
    a1 = liealg.build_root_system(liealg.CartanType.parse("A1"))
    s = modular.kac_peterson(a1, 1)
    ref = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(s.entries - ref).max() < 1e-10
    for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"):
        rs = liealg.build_root_system(liealg.CartanType.parse(name))
        for k in range(4):
            sm = modular.kac_peterson(rs, k)
            assert sm.unitarity_residual() < 1e-9
            assert sm.symmetry_residual() < 1e-9
            s4 = np.linalg.matrix_power(sm.entries, 4)
            assert np.abs(s4 - np.eye(sm.size)).max() < 1e-9
    _report(2, "sl2 k=1 matrix exact; rank<=3, k<=3 unitary/symmetric/S^4=I", t0, 30)


def test_criterion_3_wzw_fusion():
    t0 = time.time()
    a1 = liealg.build_root_system(liealg.CartanType.parse("A1"))
    worst = 0.0
    for k in range(1, 7):
        table = fusion.verlinde(modular.kac_peterson(a1, k))
        worst = max(worst, table.rounding_residual)
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    assert table.coefficients[a, b, c] == sl2_fusion_coefficient(k, a, b, c)
    assert worst < 1e-6
    _report(3, f"sl2 k<=6 fusion = truncated Clebsch-Gordan (worst residual {worst:.1e})", t0, 10)


def test_criterion_4_principal_fkw():
    t0 = time.time()
    a1 = liealg.build_root_system(liealg.CartanType.parse("A1"))
    counts = {(2, 3): 1, (3, 4): 3, (4, 5): 6}
    for (p, q), n in counts.items():
        sm = modular.fkw_principal(affine.make_admissible_level(a1, p, q))
        assert sm.size == n
    ours = fusion.verlinde(modular.fkw_principal(affine.make_admissible_level(a1, 3, 4)))
    assert fusion.fusion_ring_isomorphic(ours, virasoro_fusion(3, 4)) is not None
    _report(4, "FKW label counts 1/3/6; (3,4) fusion ring = Ising", t0, 10)


def test_criterion_5_subregular_d6():
    # The source's Vir_{3,n-2} identification forces q = 2n - 4 (central
    # charge 1/2 at (11,8), vs -8/3 at the stated (11,9)); the criterion is
    # run at the corrected denominator.  See the decisions ledger.
    t0 = time.time()
    rs = liealg.build_root_system(liealg.CartanType.parse("D6"))
    lv = affine.make_admissible_level(rs, 11, 8)
    labels = affine.subregular_labels(lv)
    assert len(labels) == 3
    sm = modular.subregular_S(lv)
    assert sm.unitarity_residual() < 1e-9
    ours = fusion.verlinde(sm)
    assert fusion.fusion_ring_isomorphic(ours, virasoro_fusion(3, 4)) is not None
    _report(5, "D6 subregular: 3 labels, fusion ring = Vir(3,4) [q = 2n-4 erratum]", t0, 60)


def test_criterion_6_e8_label_count():
    t0 = time.time()
    rs = liealg.build_root_system(liealg.CartanType.parse("E8"))
    labels = affine.subregular_labels(affine.make_admissible_level(rs, 30, 29))
    assert len(labels) == 44
    _report(6, "E8 (30,29) subregular enumeration: 44 labels", t0, 60)


def test_criterion_7_stretch_e8_full():
    t0 = time.time()
    rs = liealg.build_root_system(liealg.CartanType.parse("E8"))
    lv = affine.make_admissible_level(rs, 30, 29)
    sm = modular.subregular_S(lv)
    assert sm.size == 44
    assert sm.unitarity_residual() < 1e-7
    table = fusion.verlinde(sm)
    assert table.max_coefficient == 92
    print(f"criterion 7: PASS - E8 44x44 S, max fusion coefficient 92 ({time.time()-t0:.0f}s)")


def test_criterion_8_characters():
    t0 = time.time()
    assert qseries.triple_product_check(40)["equal"]
    rep = qseries.brst_character(20)
    assert rep["telescoped"]
    from fractions import Fraction

    from affw.qseries import eta_like_product

    direct = {(0, 0): Fraction(1), (1, 1): Fraction(-1)}
    inv_eta = eta_like_product([(1, -1, 1)], 20)
    qd = {(0, int(e)): c for e, c in inv_eta.coeffs_dict().items()}
    assert rep["two_var"] == poly2_mul(direct, qd, 20)
    y1 = rep["y1_limit"]
    ref = eta_like_product([(2, -1, 1)], 20)
    assert y1.same_series(ref)
    _report(8, "triple product to O(q^40); BRST character to O(q^20) + y->1 limit", t0, 10)


def test_criterion_9_theta_modular_law():
    t0 = time.time()
    for name in ("A1", "A2"):
        rs = liealg.build_root_system(liealg.CartanType.parse(name))
        spec = qseries.ThetaSpec.root_lattice(rs)
        for tau in (1j, 0.5j, 0.25 + 1j):
            rep = qseries.modular_transform_check(spec, tau, [0.0] * rs.rank, 1e-12)
            assert rep["residual"] < 1e-9, (name, tau, rep["residual"])
    _report(9, "theta modular law residual < 1e-9 at tau in {i, i/2, 1/4+i}", t0, 10)


def test_criterion_10_ope_goldens():
    t0 = time.time()
    import sympy
    from fractions import Fraction

    from affw import opecalc

    heis = opecalc.heisenberg()
    h = heis.gen("h")
    br = heis.bracket(h, h)
    assert br.coefficient(1).equal(heis.one()) and br.coefficient(0).is_zero()
    L = heis.normal_product(h, h).scaled(Fraction(1, 2))
    lh = heis.bracket(L, h)
    assert lh.coefficient(0).equal(h.derivative()) and lh.coefficient(1).equal(h)
    ll = heis.bracket(L, L)
    assert ll.coefficient(3).equal(heis.one(Fraction(1, 12)))

    beta_alg = opecalc.ConformalAlgebra("hb", parameters=("beta",))
    beta_alg.add_generator("h")
    beta_alg.set_bracket("h", "h", opecalc.LambdaPolynomial(beta_alg, {1: beta_alg.one()}))
    beta_alg.finalize()
    beta = beta_alg.param("beta")
    hb = beta_alg.gen("h")
    B = beta_alg.normal_product(hb, hb).scaled(Fraction(1, 2)) + hb.derivative().scaled(beta)
    repb = opecalc.virasoro_test(beta_alg, B)
    assert repb.ok and sympy.cancel(repb.central_charge - (1 - 12 * beta**2)) == 0

    for n, cform in ((2, lambda k: 3 * k / (k + 2)), (3, lambda k: 8 * k / (k + 3))):
        alg, L = opecalc.sugawara_sl(n)
        rep = opecalc.virasoro_test(alg, L)
        k = alg.param("k")
        assert rep.ok and sympy.cancel(rep.central_charge - cform(k)) == 0

    E, F, H = [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]
    algf, (fe, ff, fh) = opecalc.fermion_current([E, F, H])
    bf = algf.bracket(fe, ff)
    assert bf.coefficient(0).equal(fh) and bf.coefficient(1).equal(algf.one())

    algq, q = opecalc.brst_charge_sl2()
    assert opecalc.brst_nilpotency_abelian(algq, q)["nilpotent"]
    _report(10, "OPE golden suite reproduced symbolically", t0, 5)


def test_criterion_11_verify_quick_and_probe_independence():
    t0 = time.time()
    rc = cli_main(["verify", "--quick"])
    assert rc == 0
    for name, p, q in (("A3", 4, 3), ("D4", 7, 4)):
        rs = liealg.build_root_system(liealg.CartanType.parse(name))
        lv = affine.make_admissible_level(rs, p, q)
        labs = affine.subregular_labels(lv)
        cons, _ = modular.conservative_weights(lv, labs)
        for ei in cons:
            for ej in cons:
                k1 = modular.degenerate_kernel(rs, modular.default_probe(rs), p, q, ei, ej)
                k2 = modular.degenerate_kernel(rs, modular.alternate_probe(rs), p, q, ei, ej)
                assert abs(k1 - k2) < 1e-9
    _report(11, "verify --quick green; kernel probe independence on A3 and D4", t0, 60)
