import functools

import numpy as np
import pytest

from affw.affine import make_admissible_level
from affw.fusion import (
    FusionError,
    FusionTable,
    _exact_float,
    _find_vacuum,
    _generates,
    _verlinde_raw,
    _weights,
    charge_conjugation,
    find_vacuum,
    fusion_ring_isomorphic,
    verlinde,
)
from affw.liealg import CartanType, build_root_system
from affw.modular import SMatrix, fkw_principal, kac_peterson, subregular_S

from oracles import (
    candidate_vacua_einsum,
    find_vacuum_by_scan,
    is_associative_einsum,
    ring_isomorphisms_brute,
    sl2_fusion_coefficient,
    su_quantum_dimension,
    verlinde_einsum,
    virasoro_fusion,
    virasoro_S,
)


@pytest.fixture(scope="module")
def a1():
    return build_root_system(CartanType.parse("A1"))


def test_find_vacuum_kp(a1):
    s = kac_peterson(a1, 1)
    assert find_vacuum(s) == 0


def test_find_vacuum_hand_matrix():
    s = SMatrix(["0", "1"], np.array([[1, 1], [1, -1]]) / np.sqrt(2), "unitary", {})
    assert find_vacuum(s) == 0


def test_find_vacuum_rejects_random_unitary():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    s = SMatrix(list(range(4)), q, "unitary", {})
    with pytest.raises(FusionError):
        find_vacuum(s)


def test_sl2_fusion_closed_form(a1):
    for k in range(1, 7):
        table = verlinde(kac_peterson(a1, k))
        assert table.rounding_residual < 1e-6
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    assert table.coefficients[a, b, c] == sl2_fusion_coefficient(k, a, b, c)


def test_sl2_level1_simple_current(a1):
    table = verlinde(kac_peterson(a1, 1))
    # varpi x varpi = vacuum
    assert table.coefficients[1, 1, 0] == 1
    assert table.coefficients[1, 1, 1] == 0


def test_quantum_dimension_consistency():
    rs = build_root_system(CartanType.parse("A2"))
    table = verlinde(kac_peterson(rs, 2))
    d = table.quantum_dimensions
    n = table.coefficients
    for a in range(table.size):
        for b in range(table.size):
            assert abs(d[a] * d[b] - sum(n[a, b, c] * d[c] for c in range(table.size))) < 1e-6


def test_charge_conjugation_symmetry():
    rs = build_root_system(CartanType.parse("A2"))
    s = kac_peterson(rs, 2)
    table = verlinde(s)
    perm = charge_conjugation(s.phase_fixed(table.vacuum))
    n = table.coefficients
    for a in range(table.size):
        for b in range(table.size):
            for c in range(table.size):
                assert n[a, b, c] == n[perm[a], perm[b], perm[c]]


def test_fusion_axioms_checked():
    rs = build_root_system(CartanType.parse("A2"))
    table = verlinde(kac_peterson(rs, 3))
    table.check_axioms()


def test_iso_identity(a1):
    t = verlinde(kac_peterson(a1, 2))
    assert fusion_ring_isomorphic(t, t) == list(range(t.size))


def test_iso_size_mismatch(a1):
    ising = virasoro_fusion(3, 4)
    two = verlinde(kac_peterson(a1, 1))
    assert fusion_ring_isomorphic(two, ising) is None


def _group_ring(add, size):
    n = np.zeros((size, size, size), dtype=np.int64)
    for a in range(size):
        for b in range(size):
            n[a, b, add(a, b)] = 1
    return FusionTable(list(range(size)), n, 0, np.ones(size), 1, 0.0)


def test_iso_rejects_equal_invariants():
    # Z/4 and Z/2 x Z/2: same size, and every non-vacuum label has the same
    # N_aaa, row sums and quantum dimension, so only the search can tell them apart
    z4 = _group_ring(lambda a, b: (a + b) % 4, 4)
    klein = _group_ring(lambda a, b: a ^ b, 4)
    assert fusion_ring_isomorphic(z4, klein) is None
    assert fusion_ring_isomorphic(klein, z4) is None
    assert fusion_ring_isomorphic(z4, z4) == [0, 1, 2, 3]


def test_fkw_34_is_ising(a1):
    ours = verlinde(fkw_principal(make_admissible_level(a1, 3, 4)))
    ising = virasoro_fusion(3, 4)
    assert fusion_ring_isomorphic(ours, ising) is not None


def test_fkw_45_is_tricritical(a1):
    # and the non-unitary minimal models, whose rings need the oracle's
    # declared vacuum
    for p, q in [(4, 5), (5, 3), (7, 3), (7, 4), (8, 3), (7, 5), (5, 2)]:
        ours = verlinde(fkw_principal(make_admissible_level(a1, p, q)))
        oracle = virasoro_fusion(p, q)
        assert fusion_ring_isomorphic(ours, oracle) is not None, (p, q)


def test_subregular_d6_is_ising():
    # subregular D_n at (2n-1, 2n-4) is Vir(3, n-2): Ising at n = 6; n = 8
    # and n = 11 are not admissible (gcd(p, q) > 1)
    for n in (6, 7, 9, 10, 13):
        rs = build_root_system(CartanType.parse(f"D{n}"))
        ours = verlinde(subregular_S(make_admissible_level(rs, 2 * n - 1, 2 * n - 4)))
        oracle = virasoro_fusion(3, n - 2)
        assert fusion_ring_isomorphic(ours, oracle) is not None, n
        assert ours.max_coefficient == 1, n


def test_subregular_d4_94_nontrivial_table():
    rs = build_root_system(CartanType.parse("D4"))
    table = verlinde(subregular_S(make_admissible_level(rs, 9, 4)))
    assert table.max_coefficient >= 2
    table.check_axioms()


def test_verlinde_rejects_nonunitary():
    s = SMatrix([0, 1], np.array([[1.0, 0.2], [0.2, 1.0]], dtype=complex), "raw", {})
    with pytest.raises(FusionError):
        find_vacuum(s)


@functools.lru_cache(maxsize=None)
def _case(case: str) -> SMatrix:
    """"KP A2 k=9", "FKW A1 (11,10)", "subregular D4 (9,4)" or "Vir (3,5)"."""
    kind, rest = case.split(" ", 1)
    pq = rest.split(" ")[-1]
    if kind == "Vir":
        return virasoro_S(*map(int, pq.strip("()").split(",")))
    rs = build_root_system(CartanType.parse(rest.split(" ")[0]))
    if kind == "KP":
        return kac_peterson(rs, int(pq[2:]))
    p, q = map(int, pq.strip("()").split(","))
    make = fkw_principal if kind == "FKW" else subregular_S
    return make(make_admissible_level(rs, p, q))


BLAS_CASES = ["KP A2 k=6", "KP A2 k=9", "KP A3 k=2", "FKW A1 (11,10)", "FKW A2 (7,4)", "subregular D4 (9,4)"]


@pytest.mark.parametrize("case", BLAS_CASES)
def test_blas_kernels_match_einsum_oracle(case):
    sm = _case(case)
    s = sm.entries
    cands = candidate_vacua_einsum(s)
    v, raw = _find_vacuum(sm)
    assert np.array_equal(raw, _verlinde_raw(s, v))
    table = verlinde(sm)
    assert table.vacuum == v
    assert v in cands
    ref = verlinde_einsum(s, v)
    assert np.abs(_verlinde_raw(s, v) - ref).max() < 1e-12
    assert np.array_equal(table.coefficients, np.round(ref.real).astype(np.int64))
    assert np.array_equal(table.quantum_dimensions, (s[v] / s[v, v]).real)
    assert is_associative_einsum(table.coefficients)


@pytest.mark.parametrize("case, declared", [
    *((case, ...) for case in BLAS_CASES),
    ("FKW A2 (8,5)", ...),  # the positive row 29 fails, the declared 0 wins
    ("subregular D5 (9,7)", ...),
    ("KP A1 k=3", 3),  # the simple current 3 passes and is declared, the positive 0 wins
    ("FKW A2 (7,4)", "0"),  # declared values that are not indices
    ("FKW A2 (7,4)", 2.5),
    ("FKW A2 (7,4)", 99),
    ("FKW A2 (7,4)", None),
    ("Vir (2,5)", None),  # Lee-Yang: only row 0 passes, and its quantum dimension is -0.618
], ids=lambda v: "declared as built" if v is ... else v if isinstance(v, str) and " " in v else f"declared {v!r}")
def test_find_vacuum_matches_the_scan_oracle(case, declared):
    """``find_vacuum``'s row order decides as the full scan does: the same
    vacuum, or the same error.  ``...`` keeps the constructor's declared
    vacuum, None removes it."""
    sm = _case(case)
    if declared is not ...:
        provenance = {k: v for k, v in sm.provenance.items() if k != "vacuum"}
        if declared is not None:
            provenance["vacuum"] = declared
        sm = SMatrix(sm.labels, sm.entries, sm.normalization, provenance)
    try:
        expected = find_vacuum_by_scan(sm)
    except FusionError as e:
        with pytest.raises(FusionError) as got:
            find_vacuum(sm)
        assert str(got.value) == str(e)
        return
    assert find_vacuum(sm) == expected
    assert verlinde(sm).vacuum == expected


def test_two_passing_rows_without_a_declared_vacuum_are_refused():
    # neither passing row has positive quantum dimensions, and none is declared
    sm = _case("Vir (3,5)")
    sm = SMatrix(sm.labels, sm.entries, sm.normalization, {})
    assert candidate_vacua_einsum(sm.entries) == [0, 3]
    for rule in (find_vacuum, find_vacuum_by_scan):
        with pytest.raises(FusionError, match=r"^vacuum is not unique: candidates \[0, 3\]$"):
            rule(sm)


@pytest.mark.parametrize("case", ["KP A2 k=9", "KP A8 k=2"])
def test_find_vacuum_builds_one_tensor(case, monkeypatch):
    # the simple currents pass too (3 and 9 rows), but the positive row 0
    # decides as soon as it passes
    built = []

    def counting(s, v, pairs=None):
        built.append(v)
        return _verlinde_raw(s, v, pairs)

    monkeypatch.setattr("affw.fusion._verlinde_raw", counting)
    assert find_vacuum(_case(case)) == 0
    assert built == [0]


def test_kac_peterson_a8_level2():
    sm = _case("KP A8 k=2")
    assert sm.size == 45
    assert candidate_vacua_einsum(sm.entries) == [0, 2, 5, 9, 14, 20, 27, 35, 44]
    table = verlinde(sm)
    assert table.vacuum == 0
    ref = [su_quantum_dimension(2, [int(c) for c in label.coords]) for label in sm.labels]
    assert np.abs(table.quantum_dimensions - ref).max() < 1e-9


def test_kac_peterson_e8_level2_is_ising():
    table = verlinde(kac_peterson(build_root_system(CartanType.parse("E8")), 2))
    assert table.size == 3
    assert fusion_ring_isomorphic(table, virasoro_fusion(3, 4)) is not None


def test_iso_matches_brute_force_on_random_rings():
    # permuted copies (the vacuum moves too), and copies with one structure
    # constant N_ab^c = N_ba^c changed, against every vacuum-preserving
    # permutation; every changed copy drawn here is not isomorphic
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(150):
        size = int(rng.integers(2, 7))
        n1 = _random_table(rng, size)
        sigma = rng.permutation(size)
        n2 = np.zeros_like(n1)
        n2[np.ix_(sigma, sigma, sigma)] = n1
        changed = rng.random() < 0.4
        if changed:
            a, b = sorted(int(x) for x in rng.choice(np.delete(np.arange(size), sigma[0]), 2))
            c = int(rng.integers(size))
            n2[a, b, c] = n2[b, a, c] = (n2[a, b, c] + 1) % 4
        t1 = FusionTable(list(range(size)), n1, 0, np.ones(size), int(n1.max()), 0.0)
        t2 = FusionTable(list(range(size)), n2, int(sigma[0]), np.ones(size), int(n2.max()), 0.0)
        iso = fusion_ring_isomorphic(t1, t2)
        brute = ring_isomorphisms_brute(t1, t2)
        assert (iso is not None) == bool(brute)
        if iso is not None:
            assert iso in brute
        seen.add((changed, iso is not None))
    assert seen == {(False, True), (True, False)}


def _table(coeffs):
    n = np.array(coeffs, dtype=np.int64)
    dims = np.ones(n.shape[0])
    return FusionTable(list(range(n.shape[0])), n, 0, dims, int(n.max()), 0.0)


def test_check_axioms_rejects_non_associative_table():
    # 1 = 0, x = 1, y = 2 with x x = y, x y = 1, y y = y: symmetric, unital,
    # but (x x) y = y while x (x y) = x.
    e = np.eye(3, dtype=np.int64)
    n = np.zeros((3, 3, 3), dtype=np.int64)
    n[0], n[:, 0] = e, e
    n[1, 1], n[1, 2], n[2, 1], n[2, 2] = e[2], e[0], e[0], e[2]
    assert not is_associative_einsum(n)
    with pytest.raises(FusionError, match="not associative"):
        _table(n).check_axioms()


def test_check_axioms_refuses_tables_past_the_float64_bound():
    # x x = m x is associative for every m; 2 * m^2 < 2^53 is checked exactly,
    # 2 * m^2 >= 2^53 is refused rather than rounded.
    def table(m):
        n = np.zeros((2, 2, 2), dtype=np.int64)
        n[0], n[:, 0] = np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64)
        n[1, 1, 1] = m
        return _table(n)

    table(2**25).check_axioms()
    with pytest.raises(FusionError, match=r"2\^53"):
        table(2**26).check_axioms()


def _random_table(rng, size):
    """Symmetric, unital, entries 0-3, most of them 0."""
    n = np.zeros((size, size, size), dtype=np.int64)
    for a in range(1, size):
        for b in range(a, size):
            n[a, b] = n[b, a] = rng.integers(0, 4, size) * (rng.random(size) < 0.3)
    n[0], n[:, 0] = np.eye(size, dtype=np.int64), np.eye(size, dtype=np.int64)
    return n


def _kron(n1, n2):
    """The product ring: labels (a1, a2), unit (0, 0)."""
    s1, s2 = n1.shape[0], n2.shape[0]
    return np.einsum("abc,def->adbecf", n1, n2).reshape(s1 * s2, s1 * s2, s1 * s2)


def test_check_axioms_matches_einsum_oracle_on_random_tables():
    rng = np.random.default_rng(14)
    seen = set()
    for _ in range(150):
        n = _random_table(rng, int(rng.integers(2, 6)))
        if rng.random() < 0.3:
            n = _kron(n, _random_table(rng, int(rng.integers(2, 4))))
        associative = is_associative_einsum(n)
        seen.add((n.shape[0] > 2, associative))
        if associative:
            _table(n).check_axioms()
        else:
            with pytest.raises(FusionError, match="not associative"):
                _table(n).check_axioms()
    assert seen == {(False, True), (True, True), (True, False)}


def test_check_axioms_float32_float64_boundary():
    # every partial sum is an integer of at most size * max^2: float32 holds
    # it exactly below 2^24, float64 below 2^53
    assert _exact_float(2, 2896) is np.float32  # 2 * 2896^2 < 2^24
    assert _exact_float(2, 2897) is np.float64  # 2 * 2897^2 >= 2^24
    e = np.eye(2, dtype=np.int64)
    for m in (2896, 2897):
        n = np.zeros((2, 2, 2), dtype=np.int64)
        n[0], n[:, 0] = e, e
        n[1, 1, 1] = m  # x x = m x
        assert is_associative_einsum(n)
        _table(n).check_axioms()
    # the non-associative table above with its products scaled by m:
    # x x = m y, x y = m 1, y y = m y, so (x x) y = m^2 y but x (x y) = m x;
    # 3 m^2 < 2^24 iff m <= 2364
    e = np.eye(3, dtype=np.int64)
    for m, dtype in ((2364, np.float32), (2365, np.float64)):
        assert _exact_float(3, m) is dtype
        n = np.zeros((3, 3, 3), dtype=np.int64)
        n[0], n[:, 0] = e, e
        n[1, 1], n[1, 2], n[2, 1], n[2, 2] = m * e[2], m * e[0], m * e[0], m * e[2]
        assert not is_associative_einsum(n)
        with pytest.raises(FusionError, match="not associative"):
            _table(n).check_axioms()


def test_verlinde_refuses_a_bad_vacuum():
    sm = SMatrix(["0", "1"], np.array([[1, 1], [1, -1]]) / np.sqrt(2), "unitary", {})
    for vacuum in (5, 2, -1, 0.0, "0"):
        with pytest.raises(FusionError, match=r"label index in range\(2\)"):
            verlinde(sm, vacuum)
    assert verlinde(sm, np.int64(0)).vacuum == 0
    zero = SMatrix(["0", "1"], np.array([[0, 1], [1, 0]], dtype=complex), "unitary", {})
    with pytest.raises(FusionError, match="vacuum row 1 has a zero entry"):
        verlinde(zero, 1)


GENERATED_CASES = [
    "KP A1 k=9", "KP A1 k=10", "KP A1 k=11", "KP A1 k=40", "KP A2 k=6", "KP A2 k=9",
    "KP A3 k=4", "KP A4 k=3", "KP A8 k=2", "KP D4 k=1", "KP E6 k=2", "KP E7 k=2", "KP E8 k=3",
    "FKW A1 (11,10)", "FKW A2 (8,5)", "FKW A2 (7,4)",
    "subregular D4 (7,5)", "subregular D4 (9,4)", "subregular D5 (9,7)", "subregular D6 (11,8)",
    "subregular E6 (13,10)", "subregular E7 (19,15)",
]


@pytest.mark.parametrize("case", GENERATED_CASES)
def test_one_generator_proves_associativity(case, monkeypatch):
    # check_axioms runs the generation proof once, and it succeeds: no table
    # built here falls back to the n^5 check
    table = verlinde(_case(case))
    proofs = []

    def recording(m, v):
        proofs.append(_generates(m, v))
        return proofs[-1]

    monkeypatch.setattr("affw.fusion._generates", recording)
    table.check_axioms()
    assert proofs == [True]


def test_weights_are_fixed_and_in_range():
    w = _weights(4096)
    assert w.dtype == np.int64 and w.min() == 1 and w.max() == 2**8
    assert np.array_equal(_weights(5), w[:5])


@pytest.mark.parametrize("a, b, c", [(1, 2, 3), (12, 40, 0), (7, 30, 54)])
def test_check_axioms_catches_one_changed_kp_a2_coefficient(a, b, c):
    # N_ab^c = N_ba^c + 1 on the KP A2 k=9 table keeps the unit and the
    # symmetry; g still generates, so the one-generator product decides
    table = verlinde(_case("KP A2 k=9"))
    n = table.coefficients.copy()
    size = table.size
    assert table.vacuum == 0
    n[a, b, c] += 1
    n[b, a, c] = n[a, b, c]
    assert _generates((_weights(size) @ n.reshape(size, size * size)).reshape(size, size), 0)
    if is_associative_einsum(n):
        _table(n).check_axioms()
    else:
        with pytest.raises(FusionError, match="not associative"):
            _table(n).check_axioms()


def _nilpotent(size, products):
    """Unit 0; ``products`` maps (a, b) to a basis element, every other product of non-units is 0."""
    e = np.eye(size, dtype=np.int64)
    n = np.zeros((size, size, size), dtype=np.int64)
    n[0], n[:, 0] = e, e
    for (a, b), c in products.items():
        n[a, b] = n[b, a] = e[c]
    return n


@pytest.mark.parametrize("products, associative", [
    ({}, True),  # 1, x, y with x x = x y = y y = 0
    ({(1, 2): 3, (2, 3): 3}, False),  # x y = z, y z = z: (y y) x = 0 but y (y x) = z
])
def test_check_axioms_falls_back_where_g_does_not_generate(products, associative):
    # every g spans only 1, g and (in the second ring) z, so the proof fails
    # and every basis vector is tested
    n = _nilpotent(3 + bool(products), products)
    size = n.shape[0]
    m = (_weights(size) @ n.reshape(size, size * size)).reshape(size, size)
    assert not _generates(m, 0)
    assert is_associative_einsum(n) is associative
    if associative:
        _table(n).check_axioms()
    else:
        with pytest.raises(FusionError, match="not associative"):
            _table(n).check_axioms()
