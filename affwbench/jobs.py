"""The three workloads as seeded lists of jobs, each checked as it runs.

A job is one computation a user would ask for, from a Cartan-type string to
a checked result.  It calls only public affw functions, each through
``rec.call("<layer>.<op>", ...)`` so the traced run can time it, and raises
:class:`CheckFailed` when an output disagrees with its reference in
``oracles``.  Counts (``rec.count``) come from the mathematics of the inputs:
group orders, label counts, table sizes.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import oracles

# Modules each workload imports before its first job; setup_s pays for them.
WORKLOAD_MODULES = {
    "weyl-heavy": ("liealg", "affine", "modular", "fusion"),
    "label-heavy": ("liealg", "affine", "modular", "fusion", "cli"),
    "exact-series": ("liealg", "affine", "qseries", "opecalc"),
}

SYMMETRY_TOL = 1e-9


class CheckFailed(Exception):
    """An output disagreed with its independent reference."""

    def __init__(self, layer: str, msg: str):
        super().__init__(msg)
        self.layer = layer


class CliExit(Exception):
    """``affw.cli.main`` returned a non-zero exit code."""

    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.kind = f"CliExit{code}"


@dataclass
class Job:
    name: str
    fn: Callable  # fn(rec, workdir)
    # (error class, message fragment) of a library defect present at the
    # seed commit; a job that fails exactly so is a known failure.
    known: Optional[tuple[str, str]] = None


def check(ok: bool, layer: str, msg: str):
    if not ok:
        raise CheckFailed(layer, msg)


def _root_system(rec, cartan: str):
    from affw import liealg

    return rec.call(
        "liealg.build", lambda: liealg.build_root_system(liealg.CartanType.parse(cartan))
    )


def _level(rec, rs, p: int, q: int):
    from affw import affine

    return rec.call("affine.level", affine.make_admissible_level, rs, p, q)


def _labels(rec, fn, *args):
    labels = rec.call("affine.labels", fn, *args)
    rec.count("affine.labels", len(labels))
    return labels


def _check_smatrix(sm, n: int):
    from affw import modular

    check(sm.size == n, "modular", f"S has size {sm.size}, expected {n}")
    resid = sm.unitarity_residual()
    check(resid < modular.NORMALIZATION_TOL, "modular", f"unitarity residual {resid:.2e}")
    sym = sm.symmetry_residual()
    check(sym < SYMMETRY_TOL, "modular", f"symmetry residual {sym:.2e}")


def _fusion(rec, sm):
    """find_vacuum, then Verlinde with the vacuum given (includes the axiom checks)."""
    from affw import fusion

    vac = rec.call("fusion.find_vacuum", fusion.find_vacuum, sm)
    check(vac == 0, "fusion", f"vacuum found at {vac}, the constructor puts it at 0")
    table = rec.call("fusion.verlinde", fusion.verlinde, sm, vac)
    rec.count("fusion.table_entries", sm.size**3)
    return table


def _ring_is_virasoro(rec, table, p: int, q: int):
    from affw import fusion

    ref = oracles.virasoro_fusion_table(p, q)
    iso = rec.call("fusion.iso", fusion.fusion_ring_isomorphic, table, ref)
    check(iso is not None, "fusion", f"fusion ring is not isomorphic to Vir({p},{q})")


# -- weyl-heavy -------------------------------------------------------------------


def subregular(rec, work, cartan, p, q, n, vir=None, streamed=False):
    from affw import affine, modular

    rs = _root_system(rec, cartan)
    lv = _level(rec, rs, p, q)
    labels = _labels(rec, affine.subregular_labels, lv)
    check(len(labels) == n, "affine", f"{len(labels)} subregular labels, expected {n}")
    rec.call("modular.conservative", modular.conservative_weights, lv, labels)
    w = oracles.weyl_order(cartan)
    nu_degenerate = len({l.nu.coords for l in labels}) == 1
    # half-group kernel: |W|/2 n^2 terms; full-group nu factor: |W| n^2
    terms = w // 2 * n * n + (0 if streamed and nu_degenerate else w * n * n)
    rec.count("modular.weyl_terms", terms)
    if streamed:
        ckpt = work / "kernel.npz"
        sm = rec.call(
            "modular.smatrix", modular.subregular_S_streamed, lv,
            checkpoint=str(ckpt), checkpoint_every=4096, workers=2,
        )
        check(ckpt.is_file(), "modular", "streamed kernel wrote no checkpoint")
        rec.count("modular.checkpoint_bytes", ckpt.stat().st_size)
    else:
        sm = rec.call("modular.smatrix", modular.subregular_S, lv)
    _check_smatrix(sm, n)
    table = _fusion(rec, sm)
    if vir:
        _ring_is_virasoro(rec, table, *vir)


def weyl_walk(rec, work, cartan):
    from affw import liealg

    rs = _root_system(rec, cartan)
    seen = rec.call("liealg.weyl_stream", lambda: sum(1 for _ in liealg.weyl_stream(rs)))
    rec.count("liealg.weyl_elements", seen)
    expect = oracles.weyl_order(cartan)
    check(seen == expect, "liealg", f"weyl_stream gave {seen} elements, |W| = {expect}")


def subregular_label_count(rec, work, cartan, p, q, n):
    from affw import affine

    lv = _level(rec, _root_system(rec, cartan), p, q)
    labels = _labels(rec, affine.subregular_labels, lv)
    check(len(labels) == n, "affine", f"{len(labels)} subregular labels, expected {n}")


# -- label-heavy ------------------------------------------------------------------


def principal(rec, work, cartan, p, q, vir=None):
    from affw import affine, modular

    rs = _root_system(rec, cartan)
    lv = _level(rec, rs, p, q)
    labels = _labels(rec, affine.principal_labels, lv)
    n = len(labels)
    if cartan in ("A1", "A2"):
        expect = oracles.principal_label_count_A(int(cartan[1]), p, q)
        check(n == expect, "affine", f"{n} principal labels, expected {expect}")
    rec.count("modular.weyl_terms", 2 * oracles.weyl_order(cartan) * n * n)
    sm = rec.call("modular.smatrix", modular.fkw_principal, lv)
    _check_smatrix(sm, n)
    table = _fusion(rec, sm)
    if vir:
        _ring_is_virasoro(rec, table, *vir)


def integrable(rec, work, cartan, k):
    from affw import affine, modular

    rs = _root_system(rec, cartan)
    labels = _labels(rec, affine.enumerate_P_plus_k, rs, k)
    n = len(labels)
    rank = int(cartan[1:])
    expect = oracles.kp_label_count_A(rank, k)
    check(n == expect, "affine", f"{n} integrable labels, expected {expect}")
    rec.count("modular.weyl_terms", oracles.weyl_order(cartan) * n * n)
    sm = rec.call("modular.smatrix", modular.kac_peterson, rs, k)
    _check_smatrix(sm, n)
    table = _fusion(rec, sm)
    _check_su_dims(k, [l.coords for l in sm.labels], table.quantum_dimensions, "fusion")
    if rank == 1:
        _check_sl2_rule(k, [l.coords[0] for l in sm.labels], table.coefficients, "fusion")


def _check_su_dims(k, weights, dims, layer):
    for wt, d in zip(weights, dims):
        ref = oracles.su_quantum_dimension(k, wt)
        check(abs(d - ref) <= 1e-9 * max(1.0, abs(ref)), layer,
              f"quantum dimension of {list(map(str, wt))} is {d}, expected {ref}")


def _check_sl2_rule(k, spins, coeffs, layer):
    import numpy as np

    a = np.array([int(x) for x in spins])
    ref = oracles.sl2_fusion(k, a[:, None, None], a[None, :, None], a[None, None, :])
    check(np.array_equal(coeffs, ref), layer, "fusion differs from truncated Clebsch-Gordan")


def _cli(rec, op, argv):
    from affw import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = rec.call(f"cli.{op}", cli.main, argv)
    except SystemExit as e:  # argparse rejects the command line
        rc = e.code if isinstance(e.code, int) else 2
    if rc != 0:
        rec.count("cli.nonzero_exits")
        rec.failed_layer = rec.failed_layer or "cli"
        lines = err.getvalue().strip().splitlines()
        try:
            msg = json.loads(lines[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            msg = err.getvalue().strip()
        raise CliExit(rc, msg)


def cli_share(rec, work, variant, cartan, level=None, pq=None):
    """``affw smatrix ... --out`` then ``affw fusion --from`` on that file."""
    import numpy as np

    s_path, f_path = work / "s.json", work / "fusion.json"
    argv = ["smatrix", "--variant", variant, "--type", cartan, "--out", str(s_path)]
    argv += ["--level", str(level)] if level is not None else ["--p", str(pq[0]), "--q", str(pq[1])]
    _cli(rec, "smatrix", argv)
    _cli(rec, "fusion", ["fusion", "--from", str(s_path), "--out", str(f_path)])
    rec.count("cli.bytes_written", s_path.stat().st_size + f_path.stat().st_size)
    data = json.loads(f_path.read_text())
    check(data["vacuum"] == 0, "cli", f"vacuum {data['vacuum']} from the file, expected 0")
    if variant != "integrable":
        return
    weights = [[Fraction(x) for x in l["weight"]] for l in data["labels"]]
    _check_su_dims(level, weights, data["quantum_dimensions"], "cli")
    if cartan == "A1":
        n = len(weights)
        coeffs = np.zeros((n, n, n), dtype=np.int64)
        for e in data["coefficients"]:
            coeffs[e["a"], e["b"], e["c"]] = e["N"]
        _check_sl2_rule(level, [w[0] for w in weights], coeffs, "cli")


# -- exact-series -----------------------------------------------------------------


def _count_coeffs(rec, ch):
    rec.count("qseries.character_coeffs", sum(len(s.coeffs_dict()) for s in ch.terms.values()))


def irreducible(rec, work, cartan, order, reference, pq=None):
    """Vacuum character at level 1, or at the admissible level -2 + p/q."""
    from affw import qseries

    rs = _root_system(rec, cartan)
    if pq:
        lv = _level(rec, rs, *pq)
        level, stride = lv.k, lv.q
    else:
        level, stride = 1, 1
    lam = rs.zero_weight()
    num = rec.call("qseries.kw_numerator", qseries.kac_wakimoto_numerator,
                   rs, lam, level, stride, order)
    # only the finite Weyl group reaches q^0: |W| distinct terms summing to 0
    ground = [s.coefficient(0) for s in num.terms.values()]
    w = oracles.weyl_order(cartan)
    check(sum(c != 0 for c in ground) == w and sum(ground) == 0, "qseries",
          "Kac-Wakimoto numerator at q^0 is not the finite Weyl denominator")
    ch = rec.call("qseries.character", qseries.irreducible_character,
                  rs, lam, level, stride, order)
    _count_coeffs(rec, ch)
    y1 = ch.specialize_y1()
    reference = reference()
    step = Fraction(1, stride)
    got = [y1.coefficient(i * step) for i in range(len(reference))]
    check(got == reference, "qseries", f"y=1 character {got[:6]}..., expected {reference[:6]}...")


def verma_a2(rec, work, order):
    from affw import qseries

    rs = _root_system(rec, "A2")
    ch = rec.call("qseries.character", qseries.verma_character, rs, rs.zero_weight(), order)
    _count_coeffs(rec, ch)
    depth = order * 3  # the library default: order * (height of theta + 1)
    ref = oracles.a2_verma_multiplicities(order, depth)
    got = {}
    for coords, s in ch.terms.items():
        for e, c in s.coeffs_dict().items():
            if e <= order:
                got[(tuple(int(x) for x in coords), int(e))] = int(c)
    wrong = sorted(k for k in got.keys() | ref.keys() if got.get(k, 0) != ref.get(k, 0))
    if wrong:
        (mu, n) = wrong[0]
        raise CheckFailed("qseries", f"Verma multiplicities differ on {len(wrong)} of {len(ref)} "
                          f"entries, e.g. mu={mu} at q^{n}: {got.get(wrong[0], 0)} vs {ref.get(wrong[0], 0)}")


def w_vacuum(rec, work, cartan, order):
    from affw import qseries

    rs = _root_system(rec, cartan)
    towers = qseries.principal_w_weights(rs)
    s = rec.call("qseries.series", qseries.w_vacuum_character, towers, order)
    expect_towers = [m + 1 for m in oracles.exponents(cartan)]
    check(sorted(towers) == expect_towers, "qseries", f"generator weights {towers}")
    got = [s.coefficient(i) for i in range(order + 1)]
    check(got == oracles.tower_partitions(expect_towers, order), "qseries",
          "W-vacuum character differs from the partition count")


def triple_product(rec, work, order):
    from affw import qseries

    rep = rec.call("qseries.series", qseries.triple_product_check, order)
    check(rep["equal"], "qseries", f"triple product fails: {rep.get('first_mismatch')}")


def brst_euler(rec, work, order):
    from affw import qseries

    rep = rec.call("qseries.series", qseries.brst_character, order)
    check(rep["telescoped"], "qseries", "BRST factors do not telescope")
    got = {k: int(v) for k, v in rep["two_var"].items()}
    check(got == oracles.brst_two_variable(order), "qseries", "two-variable BRST character differs")
    y1 = [rep["y1_limit"].coefficient(i) for i in range(order + 1)]
    check(y1 == oracles.tower_partitions([2], order), "qseries", "y -> 1 limit differs")


def theta_a2(rec, work, tau):
    from affw import qseries

    rs = _root_system(rec, "A2")
    spec = qseries.ThetaSpec.root_lattice(rs)
    ev = rec.call("qseries.theta", qseries.theta_eval, spec, tau, [0.0, 0.0], 1e-12)
    rec.count("qseries.theta_points", ev["points"])
    ref = oracles.a2_theta_bruteforce(tau)
    check(abs(ev["value"] - ref) < 1e-10, "qseries", f"theta {ev['value']} vs brute force {ref}")
    rep = rec.call("qseries.theta", qseries.modular_transform_check, spec, tau, [0.0, 0.0], 1e-12)
    check(rep["passed"] and rep["residual"] < 1e-9, "qseries",
          f"modular law residual {rep['residual']:.2e}")


def sugawara(rec, work, n):
    import sympy

    from affw import opecalc

    alg, L = rec.call("opecalc.build", opecalc.sugawara_sl, n)
    rec.count("opecalc.brackets", len(L.terms) ** 2)
    rep = rec.call("opecalc.bracket", opecalc.virasoro_test, alg, L)
    check(rep.ok, "opecalc", f"[L_la L] is not Virasoro: {rep.residuals}")
    k = alg.param("k")
    c = k * (n * n - 1) / (k + n)
    check(sympy.cancel(rep.central_charge - c) == 0, "opecalc",
          f"c = {rep.central_charge}, expected {c}")


def brst_nilpotent(rec, work):
    from affw import opecalc

    alg, q = rec.call("opecalc.build", opecalc.brst_charge_sl2)
    rec.count("opecalc.brackets", len(q.terms) ** 2)
    rep = rec.call("opecalc.bracket", opecalc.brst_nilpotency_abelian, alg, q)
    check(rep["nilpotent"], "opecalc", f"[Q_la Q] = {rep['residual']}")


# -- workloads --------------------------------------------------------------------


def _weyl_heavy(rng):
    return [
        Job("subregular D4 (7,5)", partial(subregular, cartan="D4", p=7, q=5, n=8)),
        Job("subregular D4 (9,4)", partial(subregular, cartan="D4", p=9, q=4, n=6)),
        Job("subregular D5 (9,7)", partial(subregular, cartan="D5", p=9, q=7, n=12)),
        Job("subregular D6 (11,8) ~ Vir(3,4)",
            partial(subregular, cartan="D6", p=11, q=8, n=3, vir=(3, 4))),
        Job("streamed subregular D6 (11,8) workers=2 ~ Vir(3,4)",
            partial(subregular, cartan="D6", p=11, q=8, n=3, vir=(3, 4), streamed=True)),
        Job("weyl_stream W(D6)", partial(weyl_walk, cartan="D6")),
        Job("subregular labels E8 (30,29)",
            partial(subregular_label_count, cartan="E8", p=30, q=29, n=44)),
    ]


def _label_heavy(rng):
    kp_a1 = rng.choice([9, 10, 11])  # interchangeable CLI sizes
    return [
        Job("principal A1 (11,10) ~ Vir(11,10)",
            partial(principal, cartan="A1", p=11, q=10, vir=(11, 10))),
        Job("principal A2 (8,5)", partial(principal, cartan="A2", p=8, q=5)),
        Job("principal B2 (5,3)", partial(principal, cartan="B2", p=5, q=3),
            known=("SMatrixError", "not proportional to the identity")),
        Job("integrable A2 k=9", partial(integrable, cartan="A2", k=9)),
        Job("integrable A1 k=40", partial(integrable, cartan="A1", k=40)),
        Job("integrable A3 k=4", partial(integrable, cartan="A3", k=4)),
        Job("integrable A4 k=3", partial(integrable, cartan="A4", k=3)),
        Job(f"cli integrable A1 k={kp_a1}",
            partial(cli_share, variant="integrable", cartan="A1", level=kp_a1)),
        Job("cli integrable A2 k=6", partial(cli_share, variant="integrable", cartan="A2", level=6)),
        Job("cli principal A2 (7,4)", partial(cli_share, variant="principal", cartan="A2", pq=(7, 4)),
            known=("CliExit3", "vacuum is not unique")),
    ]


def _exact_series(rng):
    lattice = oracles.lattice_vacuum_character
    return [
        Job("character A1 level 1 order 20",
            partial(irreducible, cartan="A1", order=20, reference=partial(lattice, [[2]], 20))),
        Job("character A2 level 1 order 2",
            partial(irreducible, cartan="A2", order=2, reference=partial(lattice, [[2, -1], [-1, 2]], 2))),
        Job("character B2 level 1 order 2",
            partial(irreducible, cartan="B2", order=2, reference=partial(oracles.so5_level1_vacuum, 2))),
        Job("character A1 admissible (3,2) order 8",
            partial(irreducible, cartan="A1", order=8, pq=(3, 2),
                    reference=partial(oracles.betagamma_even_vacuum, 8))),
        # multiplicities near the depth edge of the window come out short
        Job("verma A2 order 4", partial(verma_a2, order=4),
            known=("CheckFailed", "Verma multiplicities differ")),
        Job("w-vacuum E8 order 40", partial(w_vacuum, cartan="E8", order=40)),
        Job("triple product", partial(triple_product, order=rng.choice([39, 40, 41]))),
        Job("brst character", partial(brst_euler, order=rng.choice([29, 30, 31]))),
        Job("theta A2 root lattice", partial(theta_a2, tau=0.25 + 1j)),
        Job("sugawara sl2", partial(sugawara, n=2)),
        Job("sugawara sl3", partial(sugawara, n=3)),
        Job("brst nilpotency", brst_nilpotent),
    ]


def _smoke(workload):
    if workload == "weyl-heavy":
        return [Job("subregular D4 (7,5)", partial(subregular, cartan="D4", p=7, q=5, n=8))]
    if workload == "label-heavy":
        return [Job("integrable A1 k=2", partial(integrable, cartan="A1", k=2))]
    return [Job("character A1 level 1 order 5",
                partial(irreducible, cartan="A1", order=5,
                        reference=partial(oracles.lattice_vacuum_character, [[2]], 5)))]


WORKLOADS = {"weyl-heavy": _weyl_heavy, "label-heavy": _label_heavy, "exact-series": _exact_series}


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The workload's job list; the seed fixes pool picks and the job order."""
    if smoke:
        return _smoke(workload)
    rng = random.Random(seed)
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    return jobs
