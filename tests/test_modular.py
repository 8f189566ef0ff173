import json
import math
import os

import numpy as np
import pytest

from affw.affine import alpha_star, make_admissible_level, subregular_labels
from affw.liealg import CartanType, Weight, build_root_system, weyl_stream
from affw.modular import (
    SMatrixError,
    alternate_probe,
    conservative_weights,
    default_probe,
    degenerate_kernel,
    fkw_principal,
    kac_peterson,
    subregular_S,
    _det,
    _replaced_dets,
    _weight_ints,
    _weyl_sum,
)

from oracles import (
    Buckets,
    alternating_sum_matrix,
    conservative_weights_by_orbit,
    half_group_kernel_matrix,
    virasoro_S,
    walk,
)


@pytest.fixture(scope="module")
def a1():
    return build_root_system(CartanType.parse("A1"))


def test_kac_peterson_sl2_level1(a1):
    s = kac_peterson(a1, 1)
    ref = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.abs(s.entries - ref).max() < 1e-10


def test_kac_peterson_sl2_level2_middle_column(a1):
    s = kac_peterson(a1, 2)
    col = s.entries[:, 1]
    assert abs(col[1]) < 1e-12
    assert abs(col[0] + col[2]) < 1e-12


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "D3", "E6", "E7"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_kac_peterson_unitary_symmetric_s4(name, k):
    rs = build_root_system(CartanType.parse(name))
    s = kac_peterson(rs, k)
    assert s.unitarity_residual() < 1e-9
    assert s.symmetry_residual() < 1e-9
    s4 = np.linalg.matrix_power(s.entries, 4)
    assert np.abs(s4 - np.eye(s.size)).max() < 1e-9


def test_kac_peterson_refuses_by_label_count_before_enumerating(monkeypatch):
    """D4 k=40 (71,071 labels) and a level past any count are refused; D4
    k=12 (1,036 labels) passes the bound and goes on to enumerate."""
    import affw.modular as modular

    def enumerates(*args):
        raise LookupError("enumerated")

    monkeypatch.setattr(modular, "enumerate_P_plus_k", enumerates)
    d4 = build_root_system(CartanType.parse("D4"))
    for k, count in ((40, 71071), (10**19, 10**19 + 1)):
        with pytest.raises(SMatrixError, match=f"at least {count} labels"):
            kac_peterson(d4, k)
    with pytest.raises(LookupError, match="enumerated"):
        kac_peterson(d4, 12)


def test_kac_peterson_charge_conjugation_is_permutation(a1):
    from affw.fusion import charge_conjugation

    rs = build_root_system(CartanType.parse("A2"))
    s = kac_peterson(rs, 2)
    perm = charge_conjugation(s)
    assert sorted(perm) == list(range(s.size))
    s2 = np.linalg.matrix_power(s.entries, 2)
    assert np.abs(s2 @ s2 - np.eye(s.size)).max() < 1e-9


def test_fkw_matches_virasoro_oracle(a1):
    # unitary (3,4), (4,5), then non-unitary minimal models
    for p, q in [(3, 4), (4, 5), (5, 3), (7, 3), (7, 4), (8, 3), (7, 5), (5, 2)]:
        sm = fkw_principal(make_admissible_level(a1, p, q))
        oracle = virasoro_S(p, q)
        # same labels (r, s) as integers
        ours = [(int(l.nu.coords[0]), int(l.eta.coords[0])) for l in sm.labels]
        # compare up to label bijection and global sign: match via fusion in
        # test_fusion; here check entrywise against the oracle on the common
        # representative choice up to representative sign per class
        m = {lab: i for i, lab in enumerate(oracle.labels)}

        def canon(lab):
            return lab if lab in m else (p - lab[0], q - lab[1])

        idx = [m[canon(lab)] for lab in ours]
        o = oracle.entries[np.ix_(idx, idx)]
        nz = np.abs(o) > 1e-9
        assert np.abs(sm.entries[~nz]).max(initial=0.0) < 1e-9
        ratio = sm.entries[nz] / o[nz]
        assert np.abs(np.abs(ratio) - 1).max() < 1e-9
        # the oracle is representative-independent, so the ratio must be a
        # single global phase
        assert np.abs(ratio - ratio.flat[0]).max() < 1e-9


def test_fkw_trivial_case(a1):
    sm = fkw_principal(make_admissible_level(a1, 2, 3))
    assert sm.size == 1
    assert abs(abs(sm.entries[0, 0]) - 1) < 1e-12


def test_fkw_factorization_provenance(a1):
    lv = make_admissible_level(a1, 4, 5)
    sm = fkw_principal(lv)
    f_nu = sm.provenance["nu_factor"]
    f_eta = sm.provenance["eta_factor"]
    # recompute one factor independently, termwise
    labels = sm.labels
    g = float(a1.gram[0][0])
    for i in range(sm.size):
        for j in range(sm.size):
            nu_i = float(labels[i].nu.coords[0])
            nu_j = float(labels[j].nu.coords[0])
            direct = sum(
                w.length_parity
                * np.exp(-2j * np.pi * (lv.q / lv.p) * float(w.act(labels[i].nu).coords[0]) * g * nu_j)
                for w in weyl_stream(a1)
            )
            assert abs(direct - f_nu[i, j]) < 1e-9
    raw_cross = sm.provenance["normalization_constant"]
    assert raw_cross > 0
    assert np.abs(f_nu * 0 + f_eta * 0).max() == 0  # shapes align


def test_fkw_diagonal_identification_rows_agree_up_to_phase(a1):
    """S-rows of two representatives of one class differ by a global phase."""
    import affw.modular as modular
    from affw.affine import PrincipalLabel
    from affw.liealg import Weight

    lv = make_admissible_level(a1, 4, 5)
    sm = fkw_principal(lv)
    labels = sm.labels
    # replace label 1 by its identification partner (p - r, q - s)
    r = int(labels[1].nu.coords[0])
    s_ = int(labels[1].eta.coords[0])
    partner = PrincipalLabel(Weight.of(lv.p - r), Weight.of(lv.q - s_))
    swapped = list(labels)
    swapped[1] = partner

    nus = _weight_ints([l.nu for l in swapped])
    etas = _weight_ints([l.eta for l in swapped])
    from fractions import Fraction

    from affw.modular import _cross_phase

    f_nu = alternating_sum_matrix(a1, nus, nus, Fraction(lv.q, lv.p))
    f_eta = alternating_sum_matrix(a1, etas, etas, Fraction(lv.p, lv.q))
    cross = _cross_phase(a1, nus, etas) * _cross_phase(a1, etas, nus)
    raw2 = cross * f_nu * f_eta
    raw1 = (
        sm.entries * math.sqrt(sm.provenance["normalization_constant"])
    )
    finite = np.abs(raw1[1]) > 1e-9
    ratios = raw2[1][finite] / raw1[1][finite]
    assert np.abs(np.abs(ratios) - 1).max() < 1e-9
    assert np.abs(ratios - ratios[0]).max() < 1e-9


def test_conservative_weights_match_the_orbit_search():
    """The dominant-word rule gives the e_i and eps(y_i) of a breadth-first orbit search."""
    for name, p, q in [("D4", 7, 5), ("D4", 9, 4), ("D4", 7, 4), ("D5", 9, 7), ("D6", 11, 8),
                       ("A3", 4, 3), ("A3", 5, 3), ("E6", 13, 10), ("E7", 19, 15), ("E8", 30, 29),
                       ("D7", 13, 10), ("D9", 17, 14), ("D10", 19, 16), ("D13", 25, 22)]:
        lv = make_admissible_level(build_root_system(CartanType.parse(name)), p, q)
        labs = subregular_labels(lv)
        assert conservative_weights(lv, labs) == conservative_weights_by_orbit(lv, labs), (name, p, q)


def test_degenerate_kernel_probe_invariance():
    """Every pair of D4 (7,5) conservative weights, and the first two of the others."""
    for name, p, q in [("A3", 4, 3), ("D4", 7, 4), ("D4", 7, 5)]:
        rs = build_root_system(CartanType.parse(name))
        lv = make_admissible_level(rs, p, q)
        labs = subregular_labels(lv)
        cons, _ = conservative_weights(lv, labs)
        some = cons if (name, p, q) == ("D4", 7, 5) else cons[:2]
        for ei in some:
            for ej in some:
                k1 = degenerate_kernel(rs, default_probe(rs), p, q, ei, ej)
                k2 = degenerate_kernel(rs, alternate_probe(rs), p, q, ei, ej)
                assert abs(k1 - k2) < 1e-9


def test_degenerate_kernel_probe_scaling_exact():
    rs = build_root_system(CartanType.parse("A3"))
    lv = make_admissible_level(rs, 4, 3)
    labs = subregular_labels(lv)
    cons, _ = conservative_weights(lv, labs)
    k1 = degenerate_kernel(rs, (1, 2, 3), 4, 3, cons[0], cons[0])
    k2 = degenerate_kernel(rs, (2, 4, 6), 4, 3, cons[0], cons[0])
    assert k1 == k2  # homogeneous of degree zero, exactly


def test_degenerate_kernel_eta_zero_is_rational():
    # eta' = 0 kills the exponential: the value is the signed weight sum
    rs = build_root_system(CartanType.parse("A3"))
    ast = alpha_star(rs)
    val = degenerate_kernel(rs, default_probe(rs), 4, 3, rs.zero_weight(), rs.zero_weight())
    assert abs(val.imag) < 1e-12
    # brute force reference with no bucketing
    probe = default_probe(rs)
    total = 0.0
    for w in weyl_stream(rs):
        img = w.act(ast.weight)
        rc = rs.weight_to_root(img)
        if all(c >= 0 for c in rc):
            total += w.length_parity * float(sum(a * b for a, b in zip(rc, probe)))
    total /= float(sum((i + 1) * c for i, c in enumerate(rs.weight_to_root(ast.weight))))
    assert abs(val.real - total) < 1e-12


def test_degenerate_kernel_brute_force_a3():
    """Streamed/bucketed kernel equals a direct O(|W|) evaluation."""
    rs = build_root_system(CartanType.parse("A3"))
    lv = make_admissible_level(rs, 5, 3)
    labs = subregular_labels(lv)
    cons, _ = conservative_weights(lv, labs)
    ast = alpha_star(rs)
    probe = default_probe(rs)
    g = [[float(x) for x in row] for row in rs.gram]

    def brute(ei, ej):
        total = 0j
        for w in weyl_stream(rs):
            img = w.act(ast.weight)
            rc = rs.weight_to_root(img)
            if not all(c >= 0 for c in rc):
                continue
            wt = float(sum(a * b for a, b in zip(rc, probe)))
            pair = sum(
                float(w.act(ei).coords[a]) * g[a][b] * float(ej.coords[b])
                for a in range(rs.rank)
                for b in range(rs.rank)
            )
            total += w.length_parity * wt * np.exp(-2j * np.pi * (lv.p / lv.q) * pair)
        return total / float(sum((i + 1) * c for i, c in enumerate(rs.weight_to_root(ast.weight))))

    for i in range(len(cons)):
        for j in range(len(cons)):
            fast = degenerate_kernel(rs, probe, lv.p, lv.q, cons[i], cons[j])
            assert abs(fast - brute(cons[i], cons[j])) < 1e-9


def test_degenerate_kernel_is_half_the_full_group_sum():
    """On conservative weights the half-group kernel is 1/2 of the sum over
    all of W with the weight <w(alpha_*), x>/<alpha_*, x> left unmasked."""
    rs = build_root_system(CartanType.parse("D4"))
    lv = make_admissible_level(rs, 7, 4)
    cons, _ = conservative_weights(lv, subregular_labels(lv))
    ast = alpha_star(rs)
    probe = default_probe(rs)
    g = np.array([[float(x) for x in row] for row in rs.gram])
    w0 = float(sum(c * x for c, x in zip(ast.root_coords, probe)))
    terms = []
    for w in weyl_stream(rs):
        wt = float(sum(c * x for c, x in zip(rs.weight_to_root(w.act(ast.weight)), probe)))
        terms.append((w, w.length_parity * wt / w0))
    for ei in cons:
        for ej in cons:
            right = g @ np.array([float(c) for c in ej.coords])
            full = 0j
            for w, c in terms:
                left = np.array([float(x) for x in w.act(ei).coords])
                full += c * np.exp(-2j * np.pi * (lv.p / lv.q) * (left @ right))
            half = degenerate_kernel(rs, probe, lv.p, lv.q, ei, ej)
            assert abs(half - full / 2) < 1e-12


def _walk_cases():
    """(root system, left, right, coef, probe) of every Weyl sum the walk checks."""
    from fractions import Fraction

    from affw.affine import enumerate_P_plus_k, principal_labels

    for name in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D4", "D5", "D6", "E6", "F4", "G2"]:
        rs = build_root_system(CartanType.parse(name))
        for k in (1, 2):
            lab = _weight_ints([l + rs.weyl_vector for l in enumerate_P_plus_k(rs, k)])
            yield f"Kac-Peterson {name} k={k}", rs, lab, lab, Fraction(1, k + rs.dual_coxeter), None
    for name, p, q in [("A1", 5, 3), ("A2", 8, 5), ("A3", 5, 4), ("B2", 5, 3)]:
        lv = make_admissible_level(build_root_system(CartanType.parse(name)), p, q)
        labels = principal_labels(lv)
        nus, etas = _weight_ints([l.nu for l in labels]), _weight_ints([l.eta for l in labels])
        yield f"principal {name} ({p},{q}) nu", lv.root_system, nus, nus, Fraction(q, p), None
        yield f"principal {name} ({p},{q}) eta", lv.root_system, etas, etas, Fraction(p, q), None
    for name, p, q in [("A3", 5, 3), ("D4", 7, 5), ("D5", 9, 7), ("D6", 11, 8), ("E6", 13, 10)]:
        lv = make_admissible_level(build_root_system(CartanType.parse(name)), p, q)
        labels = subregular_labels(lv)
        es = _weight_ints(conservative_weights(lv, labels)[0])
        nus = np.unique(_weight_ints([l.nu for l in labels]), axis=0)
        rs = lv.root_system
        yield f"subregular {name} ({p},{q}) kernel", rs, es, es, Fraction(p, q), default_probe(rs)
        yield f"subregular {name} ({p},{q}) nu", rs, nus, nus, Fraction(q, p), None
        # left and right apart: no symmetry to lean on
        yield f"subregular {name} ({p},{q}) kernel, right reversed", rs, es, es[::-1], Fraction(p, q), default_probe(rs)
        yield f"subregular {name} ({p},{q}) nu against kernel weights", rs, nus, es, Fraction(q, p), None


def test_weyl_sum_matches_the_exact_walk():
    """The coset determinants against integer buckets over all of W, entry by
    entry to 1e-12 relative (absolute below modulus 1; the sums are sums of
    roots of unity).  The walk's buckets are contracted at 30 digits, and the
    three largest kernel entries of D6 (11,8) and E6 (13,10) are compared
    with those mpmath numbers directly."""
    import mpmath

    for case, rs, left, right, coef, probe in _walk_cases():
        fast = _weyl_sum(rs, left, right, coef, probe)
        acc = Buckets(rs, left, right, coef, probe)
        walk(rs, [acc])
        exact = acc.value()
        err = np.abs(fast - exact) / np.maximum(np.abs(exact), 1)
        assert err.max() <= 1e-12, (case, err.max())
        if case in ("subregular D6 (11,8) kernel", "subregular E6 (13,10) kernel"):
            digits = acc.exact(30)
            for flat in np.argsort(-np.abs(exact), axis=None)[:3]:
                i, j = divmod(int(flat), exact.shape[1])
                ref = digits[i][j]
                assert abs(mpmath.mpc(fast[i, j]) - ref) <= 1e-12 * abs(ref), (case, i, j)


@pytest.mark.parametrize("dtype,m,k", [(np.longdouble, 8, 2), (np.longdouble, 5, 2), (np.longdouble, 6, 1),
                                       (np.longdouble, 4, 4), (np.clongdouble, 4, 2), (np.clongdouble, 7, 3)])
def test_shared_column_derivative_matches_the_full_eliminations(dtype, m, k):
    """The shared elimination against ``_det`` of each replaced matrix, on
    seeded real longdouble stacks (the B/C and D parts) and complex ones
    (family A), each a batch of three parts of 40 matrices."""
    rng = np.random.default_rng(2901 + 10 * m + k)

    def draw(*shape):
        out = rng.standard_normal(shape).astype(dtype)
        return out + 1j * rng.standard_normal(shape) if dtype == np.clongdouble else out

    x, z = draw(3, 40, m, m), draw(3, 40, m, k)

    def by_full_eliminations(x):
        total = 0
        for r in range(k):
            y = x.copy()
            y[..., m - k + r] = z[..., r]
            total = total + _det(y)
        return total

    fast, slow = _replaced_dets(x, z), by_full_eliminations(x)
    assert fast.shape == (3, 40) and fast.dtype == dtype
    assert np.abs(fast - slow).max() <= 1e-15 * np.abs(slow).max()
    # linear in the replaced columns: a power of two scales the result exactly
    for scale in (2.0, 0.125, 1024.0):
        assert np.array_equal(_replaced_dets(x, scale * z), scale * fast)
    # a zero shared block makes every variant singular: exactly 0, as _det gives
    if k < m:
        x[..., : m - k] = 0
        assert not by_full_eliminations(x).any()
        assert not _replaced_dets(x, z).any()


def test_degenerate_kernel_refuses_weights_off_the_star_wall():
    """The half-group kernel is half the full-group sum only when
    <eta, alpha_*> = 0 (mod q); other left weights are refused."""
    rs = build_root_system(CartanType.parse("A3"))
    rho, zero = rs.weyl_vector, rs.zero_weight()
    with pytest.raises(SMatrixError, match="alpha_"):
        degenerate_kernel(rs, default_probe(rs), 4, 3, rho, rho)  # <rho, alpha_*> = 1
    on_wall = 3 * rs.fundamental_weight(alpha_star(rs).root_coords.index(1))
    for eta in (zero, on_wall):
        assert np.isfinite(degenerate_kernel(rs, default_probe(rs), 4, 3, eta, rho))


@pytest.mark.parametrize("name,p,q,nlab", [("D6", 11, 8, 3), ("A3", 5, 3, 4), ("D4", 7, 5, 8), ("D4", 9, 4, 6),
                                            ("D5", 9, 7, 12), ("E6", 13, 10, 6), ("E7", 19, 15, 4)])
def test_subregular_S_unitary_symmetric(name, p, q, nlab):
    from affw.fusion import find_vacuum

    rs = build_root_system(CartanType.parse(name))
    sm = subregular_S(make_admissible_level(rs, p, q))
    assert sm.size == nlab
    assert sm.unitarity_residual() < 1e-9
    assert sm.symmetry_residual() < 1e-9
    assert find_vacuum(sm) == 0  # the declared vacuum is the unique candidate


def test_subregular_nu_factor_degeneracy_flag():
    rs = build_root_system(CartanType.parse("E8"))
    # p = h_check makes the regular set a single weight; use the D6 case for
    # speed and check the flag is False there, with the E8 flag covered by
    # the label test (single nu).
    rs6 = build_root_system(CartanType.parse("D6"))
    sm = subregular_S(make_admissible_level(rs6, 11, 8))
    assert sm.provenance["nu_factor_degenerate"] is False
    labs = subregular_labels(make_admissible_level(rs, 30, 29))
    assert len({tuple(l.nu.coords) for l in labs}) == 1


def test_subregular_phase_fix_and_s2(a1):
    rs = build_root_system(CartanType.parse("D6"))
    sm = subregular_S(make_admissible_level(rs, 11, 8))
    from affw.fusion import charge_conjugation, find_vacuum

    v = find_vacuum(sm)
    fixed = sm.phase_fixed(v)
    assert fixed.entries[v, v].real > 0
    assert abs(fixed.entries[v, v].imag) < 1e-12
    perm = charge_conjugation(fixed)
    assert sorted(perm) == list(range(fixed.size))


def test_streamed_kernel_matches_direct():
    rs = build_root_system(CartanType.parse("D4"))
    lv = make_admissible_level(rs, 7, 5)
    labs = subregular_labels(lv)
    cons, _ = conservative_weights(lv, labs)
    es = _weight_ints(cons)
    direct = half_group_kernel_matrix(rs, default_probe(rs), 7, 5, es, es)
    sm = subregular_S(lv, workers=2)
    streamed = sm.provenance["kernel"]
    assert [tuple(l.eta.coords) for l in sm.labels] == [tuple(l.eta.coords) for l in labs]
    assert np.abs(direct - streamed).max() < 1e-12


def test_subregular_conservative_choice_gives_same_rows_up_to_phase():
    """Different conservative representatives change rows by a phase only.

    y and z*y are both conservative for a label when z stabilises alpha_*;
    the assembled rows must agree up to a global phase, which validates the
    class quotient.
    """
    import affw.modular as modular
    from fractions import Fraction

    rs = build_root_system(CartanType.parse("D6"))
    lv = make_admissible_level(rs, 11, 8)
    labs = subregular_labels(lv)
    cons, eps = conservative_weights(lv, labs)
    ast = alpha_star(rs)
    # a simple reflection orthogonal to alpha_* (node 1 works for D6)
    assert rs.reflect_coords(0, ast.weight.coords) == ast.weight.coords
    cons2 = list(cons)
    eps2 = list(eps)
    cons2[1] = Weight(rs.reflect_coords(0, cons[1].coords))
    eps2[1] = -eps[1]

    def assemble(cws, signs):
        es = _weight_ints(cws)
        nus = _weight_ints([l.nu for l in labs])
        kern = half_group_kernel_matrix(rs, default_probe(rs), lv.p, lv.q, es, es)
        f_nu = alternating_sum_matrix(rs, nus, nus, Fraction(lv.q, lv.p))
        cross = modular._cross_phase(rs, es, nus) * modular._cross_phase(rs, nus, es)
        sg = np.array(signs, dtype=float)
        return modular._normalize(sg[:, None] * sg[None, :] * cross * kern * f_nu, labs, {})

    s1 = assemble(cons, eps)
    s2 = assemble(cons2, eps2)
    row1, row2 = s1.entries[1], s2.entries[1]
    nz = np.abs(row1) > 1e-10
    ratios = row2[nz] / row1[nz]
    assert np.abs(np.abs(ratios) - 1).max() < 1e-9
    assert np.abs(ratios - ratios[0]).max() < 1e-9


def test_streamed_kernel_parallel_matches_serial():
    """Chunked parallel reduction is order-free: workers agree exactly."""
    rs = build_root_system(CartanType.parse("D4"))
    lv = make_admissible_level(rs, 9, 4)
    k1 = subregular_S(lv, workers=1).provenance["kernel"]
    k2 = subregular_S(lv, workers=2).provenance["kernel"]
    assert np.abs(k1 - k2).max() == 0
    k5 = subregular_S(lv, workers=5).provenance["kernel"]
    assert np.array_equal(k1, k5)


@pytest.mark.parametrize("option", [{"workers": 0}, {"checkpoint_every": 0}, {"checkpoint_every": -5},
                                    {"checkpoint": "missing/x.npz"}])
def test_walk_options_are_refused_before_the_walk(option, tmp_path):
    lv = make_admissible_level(build_root_system(CartanType.parse("D4")), 7, 4)
    option = {"checkpoint": "x.npz", **option}
    ckpt = tmp_path / option.pop("checkpoint")
    message = "must be a positive integer" if ckpt.parent == tmp_path else "no such directory"
    with pytest.raises(SMatrixError, match=message):
        subregular_S(lv, checkpoint=str(ckpt), **option)
    assert not any(tmp_path.iterdir())


def test_truncated_checkpoint_is_refused(tmp_path):
    lv = make_admissible_level(build_root_system(CartanType.parse("D4")), 7, 4)
    ck = tmp_path / "ck.npz"
    subregular_S(lv, checkpoint=str(ck))
    ck.write_bytes(ck.read_bytes()[:200])
    with pytest.raises(SMatrixError, match="not a readable affw checkpoint"):
        subregular_S(lv, checkpoint=str(ck))


def test_streamed_kernel_checkpoint_resume(tmp_path):
    rs = build_root_system(CartanType.parse("A3"))
    lv = make_admissible_level(rs, 5, 3)
    ck = str(tmp_path / "ck.npz")
    k1 = subregular_S(lv, checkpoint=ck, checkpoint_every=5).provenance["kernel"]
    assert os.path.exists(ck)
    # resuming from the completed checkpoint must not double-count
    k2 = subregular_S(lv, checkpoint=ck).provenance["kernel"]
    assert np.abs(k1 - k2).max() == 0


@pytest.fixture(scope="module")
def e6_level():
    """E6 (13,10): 27 cosets of W(D5), so a run has many coset boundaries."""
    return make_admissible_level(build_root_system(CartanType.parse("E6")), 13, 10)


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpoint_resumes_an_interrupted_walk(tmp_path, monkeypatch, workers, e6_level):
    import affw.modular as modular

    lv, rs = e6_level, e6_level.root_system
    fresh = subregular_S(lv)
    ck = str(tmp_path / "ck.npz")
    weyl_sum, calls = modular._weyl_sum, []

    def dies_after_ten_cosets(*args):
        calls.append(1)
        if len(calls) > 20:  # two sums per coset
            raise KeyboardInterrupt
        return weyl_sum(*args)

    monkeypatch.setattr(modular, "_weyl_sum", dies_after_ten_cosets)
    with pytest.raises(KeyboardInterrupt):
        subregular_S(lv, checkpoint=ck, checkpoint_every=16, workers=workers)
    monkeypatch.setattr(modular, "_weyl_sum", weyl_sum)
    assert 0 < int(np.load(ck)["count"]) < rs.weyl_order
    resumed = subregular_S(lv, checkpoint=ck)
    assert np.array_equal(resumed.entries, fresh.entries)
    assert resumed.provenance["weyl_elements"] == rs.weyl_order
    assert not os.path.exists(ck + ".tmp")


def test_one_worker_starts_no_thread_and_no_fingerprint(e6_level):
    """Without a checkpoint nothing is fingerprinted, and no value of
    ``workers`` starts a thread: every coset runs in the calling thread."""
    import threading
    import zlib
    from unittest.mock import patch

    fresh = subregular_S(e6_level)
    for workers in (1, 2):
        with patch.object(threading.Thread, "start", side_effect=AssertionError("a thread started")), \
                patch.object(zlib, "crc32", side_effect=AssertionError("a fingerprint was built")):
            sm = subregular_S(e6_level, workers=workers)
        assert np.array_equal(sm.entries, fresh.entries)


def test_checkpoints_do_not_depend_on_workers(tmp_path, monkeypatch, e6_level):
    import affw.modular as modular

    lv = e6_level
    weyl_sum, saved = modular._weyl_sum, {}
    for workers in (1, 2, 5):
        calls = []

        def dies_in_the_fourth_pause(*args):
            calls.append(1)
            # checkpoint_every=5000 gives pauses of 3 cosets of 1,920 elements,
            # two sums each: call 21 is in the fourth pause, after 9 cosets
            if len(calls) > 20:
                raise KeyboardInterrupt
            return weyl_sum(*args)

        monkeypatch.setattr(modular, "_weyl_sum", dies_in_the_fourth_pause)
        ck = str(tmp_path / f"ck{workers}.npz")
        with pytest.raises(KeyboardInterrupt):
            subregular_S(lv, checkpoint=ck, checkpoint_every=5000, workers=workers)
        with np.load(ck) as data:
            saved[workers] = {k: data[k] for k in data.files}
    for workers in (1, 2, 5):
        assert (int(saved[workers]["count"]), int(saved[workers]["next"])) == (17280, 9)
        assert saved[workers].keys() == saved[1].keys()
        for k in saved[1]:
            assert np.array_equal(saved[workers][k], saved[1][k]), (workers, k)


def test_checkpoint_of_another_job_is_refused(tmp_path):
    rs = build_root_system(CartanType.parse("D4"))
    ck = str(tmp_path / "ck.npz")
    subregular_S(make_admissible_level(rs, 7, 4), checkpoint=ck)
    # same shapes, same kernel denominator: only the fingerprint tells them apart
    with pytest.raises(SMatrixError, match="p is 7 there, 9 here"):
        subregular_S(make_admissible_level(rs, 9, 4), checkpoint=ck)
    # a format-4 checkpoint, whose fingerprint still carried the kernel's probe
    with np.load(ck) as data:
        state = {k: data[k] for k in ("kernel", "nu", "count", "next")}
        fingerprint = {**json.loads(str(data["fingerprint"])), "format": 4, "probe": [1, 2, 3, 4]}
    np.savez_compressed(ck, fingerprint=json.dumps(fingerprint, sort_keys=True), **state)
    with pytest.raises(SMatrixError, match="format is 4 there, 5 here"):
        subregular_S(make_admissible_level(rs, 7, 4), checkpoint=ck)
    # a checkpoint without a fingerprint (the old layout) is refused too
    np.savez_compressed(ck, acc=np.zeros((6, 6, 8), dtype=np.int64), done=np.ones(30, bool), count=192)
    with pytest.raises(SMatrixError, match="format is None there"):
        subregular_S(make_admissible_level(rs, 7, 4), checkpoint=ck)


def test_checkpoint_of_the_chunked_walk_is_refused(tmp_path):
    """Format-2 (buckets and a mask of finished subtree chunks) and format-3
    (buckets and the walk's pending stack) checkpoints."""
    rs = build_root_system(CartanType.parse("D4"))
    lv = make_admissible_level(rs, 7, 4)
    ck = str(tmp_path / "ck.npz")
    subregular_S(lv, checkpoint=ck)
    with np.load(ck) as data:
        state = {k: data[k] for k in ("kernel", "nu", "count")}
        fingerprint = {**json.loads(str(data["fingerprint"])), "format": 2, "chunks": 31}
    np.savez_compressed(ck, fingerprint=json.dumps(fingerprint, sort_keys=True),
                        done=np.ones(31, bool), **state)
    with pytest.raises(SMatrixError, match="format is 2 there, 5 here"):
        subregular_S(lv, checkpoint=ck)
    # a format-3 checkpoint: integer buckets and the pending stack of the walk
    fingerprint.update(format=3, den=[20, 7])
    del fingerprint["chunks"]
    np.savez_compressed(ck, fingerprint=json.dumps(fingerprint, sort_keys=True), count=64,
                        kernel=np.zeros((6, 6, 20), np.int64), nu=np.zeros((2, 2, 7), np.int64),
                        matrices=np.zeros((3, 4, 4), np.int8), depth=np.ones(3, np.int16))
    with pytest.raises(SMatrixError, match="format is 3 there, 5 here"):
        subregular_S(lv, checkpoint=ck)


def test_normalization_failure_raises():
    """A wrong label set must be rejected by the proportionality check."""
    import affw.modular as modular

    rs = build_root_system(CartanType.parse("D4"))
    lv = make_admissible_level(rs, 7, 5)
    labs = subregular_labels(lv)
    bad = labs[:-1]  # drop one label: the Gram matrix is no longer c*I
    cons, eps = conservative_weights(lv, bad)
    es = _weight_ints(cons)
    nus = _weight_ints([l.nu for l in bad])
    from fractions import Fraction

    kern = half_group_kernel_matrix(rs, default_probe(rs), 7, 5, es, es)
    f_nu = alternating_sum_matrix(rs, nus, nus, Fraction(lv.q, lv.p))
    cross = modular._cross_phase(rs, es, nus) * modular._cross_phase(rs, nus, es)
    sign = np.array(eps, dtype=float)
    raw = sign[:, None] * sign[None, :] * cross * kern * f_nu
    with pytest.raises(SMatrixError):
        modular._normalize(raw, bad, {})
