"""Command-line front end: roots | weights | char | smatrix | fusion | ope | verify.

JSON is the interchange format (complex numbers as [re, im] pairs); fusion
tables can also be written as CSV.  Exit codes: 0 ok, 2 validation error,
3 tolerance/integrality failure, 4 unsupported case.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, affine, fusion, liealg, modular, qseries

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_UNSUPPORTED = 4


class CliError(Exception):
    def __init__(self, msg, code):
        super().__init__(msg)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`CliError`, not as usage text;
    subparsers are built from the same class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", EXIT_VALIDATION)


def _out_path(args, default_name):
    if getattr(args, "out", None):
        return args.out
    base = os.environ.get("AFFW_OUT_DIR")
    if base:
        return os.path.join(base, default_name)
    return None


def _write(path: str, text: str):
    """Write ``text`` to ``path``; a path that cannot be opened exits 2."""
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}", EXIT_VALIDATION)
    print(f"wrote {path}")


# bytes.translate table: 1 at the quote and at the bytes that can be structure
_TOKENS = bytes(b in b'"[]{},' for b in range(256))


def _dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, from the C encoder.

    With ``indent`` the json module runs its pure-Python encoder, several times
    slower.  The one-line text has the same tokens; only the newline-and-indent
    runs are missing.  One goes after the opener of a non-empty container and
    after each comma, and one before the closer of a non-empty container, each
    indented to the depth after that byte.  The text is ASCII, and once the
    escapes ``\\\\`` and ``\\"`` are masked every quote opens or closes a
    string, so a bracket or comma is structure exactly when an even number of
    quotes comes before it.
    """
    flat = json.dumps(obj, sort_keys=True, separators=(",", ": ")).encode("ascii")
    masked = flat.replace(b"\\\\", b"__").replace(b'\\"', b"__") if b"\\" in flat else flat
    hits = np.flatnonzero(np.frombuffer(masked.translate(_TOKENS), bool))
    a = np.frombuffer(flat, np.uint8)
    c = a[hits]
    quote = c == ord('"')
    structure = ~(quote | np.logical_xor.accumulate(quote))
    pos, c = hits[structure], c[structure]
    opens = (c == ord("[")) | (c == ord("{"))
    closes = (c == ord("]")) | (c == ord("}"))
    depth = np.cumsum(opens.astype(np.intp) - closes)
    # "[]" and "{}" stay as they are: an opener with its closer on the next byte
    empty = np.zeros(len(pos) + 1, bool)
    empty[1:-1] = opens[:-1] & closes[1:] & (np.diff(pos) == 1)
    keep = ~(empty[1:] | empty[:-1])
    at = (pos + 1 - closes)[keep]  # a run goes before byte ``at`` of ``flat``
    shift = np.zeros(len(at) + 1, np.intp)  # the bytes inserted before each segment
    np.cumsum(1 + 2 * depth[keep], out=shift[1:])
    dest = np.repeat(shift, np.diff(at, prepend=0, append=len(flat)))
    dest += np.arange(len(flat))
    out = np.full(len(flat) + shift[-1], ord(" "), np.uint8)
    out[dest] = a
    out[at + shift[:-1]] = ord("\n")
    return out.tobytes().decode("ascii")


def _emit(payload: dict, args, default_name: str):
    payload = {"affw_version": __version__, "config": payload.pop("config"), **payload}
    text = _dumps(payload)
    path = _out_path(args, default_name)
    if path:
        _write(path, text + "\n")
    else:
        print(text)


def _complex_matrix(m: np.ndarray) -> list:
    def f(x):
        return float(f"{x:.12g}")

    return [[[f(z.real), f(z.imag)] for z in row] for row in m]


def _root_system(args) -> liealg.RootSystem:
    try:
        return liealg.build_root_system(liealg.CartanType.parse(args.type))
    except liealg.LieAlgebraError as e:
        raise CliError(str(e), EXIT_VALIDATION)


def cmd_roots(args):
    rs = _root_system(args)
    payload = {
        "config": {"command": "roots", "type": args.type},
        "rank": rs.rank,
        "positive_roots": [
            {"root_coords": list(r.root_coords), "height": r.height}
            for r in rs.positive_roots
        ],
        "highest_root": list(rs.highest_root.root_coords),
        "dual_coxeter": rs.dual_coxeter,
        "exponents": list(rs.exponents),
        "weyl_order": rs.weyl_order,
        "index_P_mod_Q": rs.index_P_mod_Q,
        "index_P_mod_Qcheck": rs.index_P_mod_Qcheck,
        "comarks": list(rs.comarks),
    }
    _emit(payload, args, f"roots_{args.type}.json")


def _refuse_ignored(args, where: str, *dests):
    """Exit 2 on the first flag in ``dests`` off its default (None or False):
    ``where`` ignores it, so it must not reach ``config``."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise CliError(f"--{dest.replace('_', '-')} has no effect with {where}", EXIT_VALIDATION)


def _admissible(rs, args):
    if args.p is None or args.q is None:
        raise CliError(f"{args.command} needs both --p and --q", EXIT_VALIDATION)
    try:
        return affine.make_admissible_level(rs, args.p, args.q)
    except affine.AffineDataError as e:
        raise CliError(str(e), EXIT_VALIDATION)


def _label_json(label) -> dict:
    """An S-matrix label: a weight, or a (nu, eta) pair plus the wall of a subregular one."""
    if isinstance(label, liealg.Weight):
        return {"weight": [str(c) for c in label.coords]}
    row = {"nu": [str(c) for c in label.nu.coords], "eta": [str(c) for c in label.eta.coords]}
    if isinstance(label, affine.SubregularLabel):
        row["wall"] = label.wall_id
    return row


def cmd_weights(args):
    rs = _root_system(args)
    lv = _admissible(rs, args)
    make = affine.principal_labels if args.variant == "principal" else affine.subregular_labels
    try:
        rows = [{"wall": None, **_label_json(l)} for l in make(lv)]
    except affine.AffineDataError as e:
        raise CliError(str(e), EXIT_UNSUPPORTED)
    payload = {
        "config": {"command": "weights", "type": args.type, "variant": args.variant,
                   "p": args.p, "q": args.q},
        "labels": rows,
        "p": args.p,
        "q": args.q,
        "type": args.type,
    }
    _emit(payload, args, f"weights_{args.type}_{args.p}_{args.q}.json")


def cmd_char(args):
    if args.kind != "irreducible":
        _refuse_ignored(args, f"--kind {args.kind}", "level", "p", "q", "two_var", "y_spec")
    if args.level is not None and (args.p is not None or args.q is not None):
        raise CliError("give --level or --p/--q, not both", EXIT_VALIDATION)
    if args.two_var:
        _refuse_ignored(args, "--two-var", "y_spec")
    rs = _root_system(args)
    if args.order < 0:
        raise CliError("--order must be a non-negative integer", EXIT_VALIDATION)
    if args.kind == "w-vacuum":
        result = qseries.w_vacuum_character(qseries.principal_w_weights(rs), args.order).to_json()
    elif args.kind == "brst":
        rep = qseries.brst_character(args.order)
        result = {
            "telescoped": rep["telescoped"],
            "y1_limit": rep["y1_limit"].to_json(),
            "two_var": [
                {"y": y, "q": q, "coeff": str(c)} for (y, q), c in sorted(rep["two_var"].items())
            ],
        }
    else:
        result = _irreducible_json(rs, args)
    _emit({"config": vars_config(args), **result}, args,
          "char_brst.json" if args.kind == "brst" else "char.json")


def _irreducible_json(rs, args) -> dict:
    """The vacuum character at ``--level`` or at the admissible level of ``--p``/``--q``."""
    if args.level is not None:
        try:
            level = Fraction(args.level)
        except (ValueError, ZeroDivisionError):
            raise CliError(f"--level must be a number, not {args.level!r}", EXIT_VALIDATION)
        if level.denominator != 1 or level < 0:
            raise CliError("--level must be a non-negative integer (or give --p/--q)", EXIT_VALIDATION)
        stride = 1
    elif args.p is not None or args.q is not None:
        level, stride = _admissible(rs, args).k, args.q
    else:
        raise CliError("char needs --level or both --p and --q", EXIT_VALIDATION)
    try:
        ch = qseries.irreducible_character(rs, rs.zero_weight(), level, stride, args.order)
    except qseries.QSeriesError as e:
        raise CliError(str(e), EXIT_VALIDATION)
    if args.two_var:
        return {"terms": [{"weight": [str(x) for x in coords], "series": s.to_json()}
                          for coords, s in sorted(ch.terms.items())]}
    if not args.y_spec:
        return ch.specialize_y1().to_json()
    try:
        spec = ch.specialize([Fraction(x) for x in args.y_spec.split(",")])
    except (ValueError, ZeroDivisionError) as e:
        raise CliError(f"bad --y-spec {args.y_spec!r}: {e}", EXIT_VALIDATION)
    return {"y_series": {str(k): v.to_json() for k, v in sorted(spec.items())}}


def vars_config(args):
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def cmd_smatrix(args):
    ignored = {"integrable": ("p", "q"), "principal": ("level",), "subregular": ("level",)}
    _refuse_ignored(args, f"--variant {args.variant}", *ignored[args.variant])
    rs = _root_system(args)
    t0 = time.perf_counter()
    try:
        if args.variant == "integrable":
            if args.level is None:
                raise CliError("integrable variant needs --level", EXIT_VALIDATION)
            sm = modular.kac_peterson(rs, args.level)
        elif args.variant == "principal":
            sm = modular.fkw_principal(_admissible(rs, args))
        else:
            sm = modular.subregular_S(_admissible(rs, args))
    except modular.SMatrixError as e:
        code = EXIT_TOLERANCE if e.residual is not None else EXIT_VALIDATION
        raise CliError(str(e), code)
    except affine.AffineDataError as e:
        raise CliError(str(e), EXIT_UNSUPPORTED)
    payload = {
        "config": vars_config(args),
        "variant": args.variant,
        "labels": [_label_json(l) for l in sm.labels],
        "matrix": _complex_matrix(sm.entries),
        "normalization": sm.normalization,
        "vacuum": sm.provenance.get("vacuum"),
        "unitarity_residual": sm.unitarity_residual(),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    _emit(payload, args, f"smatrix_{args.type}.json")


def _read_smatrix(path) -> modular.SMatrix:
    """An S-matrix file written by ``affw smatrix``; anything else is a CliError."""
    try:
        with open(path, "r") as fh:
            data = json.load(fh)
        if not isinstance(data["labels"], list):
            raise ValueError(f"labels must be a list, not {type(data['labels']).__name__}")
        m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
        if m.ndim != 2 or m.shape[0] != m.shape[1] or len(data["labels"]) != m.shape[0]:
            raise ValueError("matrix must be square with one row per label")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite, not NaN or infinite")
        vacuum = data.get("vacuum")
        if vacuum is not None and (type(vacuum) is not int or not 0 <= vacuum < m.shape[0]):
            raise ValueError(f"vacuum must be a label index, not {vacuum!r}")
        provenance = {} if vacuum is None else {"vacuum": vacuum}
        return modular.SMatrix(data["labels"], m, data.get("normalization", "unitary"), provenance)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise CliError(f"cannot read an S-matrix from {path}: {e}", EXIT_VALIDATION)


def _nonzero_coefficients(table: fusion.FusionTable) -> list:
    """[a, b, c, N_ab^c] for every nonzero coefficient, in C order of (a, b, c)."""
    idx = np.argwhere(table.coefficients)
    vals = table.coefficients[tuple(idx.T)]
    return np.column_stack([idx, vals]).tolist()


def cmd_fusion(args):
    sm = _read_smatrix(getattr(args, "from"))
    try:
        table = fusion.verlinde(sm)
    except fusion.FusionError as e:
        raise CliError(str(e), EXIT_TOLERANCE)
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["a", "b", "c", "N"])
        w.writerows([a, b, c, n] for a, b, c, n in _nonzero_coefficients(table))
        _write(_out_path(args, "fusion.csv") or "fusion.csv", buf.getvalue())
        return
    payload = {
        "config": vars_config(args),
        "labels": sm.labels,
        "vacuum": table.vacuum,
        "max_coefficient": table.max_coefficient,
        "rounding_residual": table.rounding_residual,
        "quantum_dimensions": [float(f"{d:.12g}") for d in table.quantum_dimensions],
        "coefficients": [
            {"a": a, "b": b, "c": c, "N": n} for a, b, c, n in _nonzero_coefficients(table)
        ],
    }
    _emit(payload, args, "fusion.json")


def cmd_ope(args):
    from . import opecalc  # loads sympy, which no other command needs

    try:
        results = _ope_results(args, opecalc)
    except opecalc.OpeError as e:
        raise CliError(str(e), EXIT_UNSUPPORTED)
    payload = {"config": vars_config(args), "results": results}
    _emit(payload, args, f"ope_{args.preset}.json")


def _ope_results(args, opecalc) -> dict:
    if args.preset != "sugawara":
        _refuse_ignored(args, f"--preset {args.preset}", "rank", "type")
    if args.preset == "heisenberg":
        alg = opecalc.heisenberg()
        h = alg.gen("h")
        L = alg.normal_product(h, h).scaled(Fraction(1, 2))
        rep = opecalc.virasoro_test(alg, L)
        results = {
            "[h_la h]": str(alg.bracket(h, h)),
            "[L_la h]": str(alg.bracket(L, h)),
            "[L_la L]": str(alg.bracket(L, L)),
            "central_charge": str(rep.central_charge),
        }
    elif args.preset == "sugawara":
        if args.rank is not None and args.type is not None:
            raise CliError("give --rank or --type, not both", EXIT_VALIDATION)
        if args.rank is not None and args.rank < 1:
            raise CliError("--rank must be a positive integer", EXIT_VALIDATION)
        alg = None
        if args.type is not None:
            rs = _root_system(args)
            alg, n = opecalc.affine(rs), rs.rank + 1
        else:
            n = 2 if args.rank is None else args.rank + 1
        alg, L = opecalc.sugawara_sl(n, alg)
        rep = opecalc.virasoro_test(alg, L)
        results = {
            "algebra": f"sl{n}",
            "virasoro": rep.ok,
            "central_charge": str(rep.central_charge),
        }
    elif args.preset == "fermion-current":
        E = [[0, 1], [0, 0]]
        F = [[0, 0], [1, 0]]
        H = [[1, 0], [0, -1]]
        alg, (fe, ff, fh) = opecalc.fermion_current([E, F, H])
        results = {
            "[F^e_la F^f]": str(alg.bracket(fe, ff)),
            "[F^h_la F^h]": str(alg.bracket(fh, fh)),
        }
    elif args.preset == "brst-sl2":
        alg, q = opecalc.brst_charge_sl2()
        rep = opecalc.brst_nilpotency_abelian(alg, q)
        results = {"Q": str(q), "nilpotent": rep["nilpotent"], "residual": rep["residual"]}
    else:
        raise CliError(f"unknown preset {args.preset}", EXIT_VALIDATION)
    return results


def cmd_verify(args):
    checks = []

    def check(name, fn):
        t0 = time.perf_counter()
        try:
            fn()
            checks.append((name, True, time.perf_counter() - t0, ""))
        except Exception as e:  # noqa: BLE001 - report, don't crash the table
            checks.append((name, False, time.perf_counter() - t0, f"{type(e).__name__}: {e}"))

    def c_roots():
        table = {"A1": (1, 2, 2), "A2": (3, 6, 3), "A3": (6, 24, 4), "D4": (12, 192, 6),
                 "D5": (20, 1920, 8), "E6": (36, 51840, 12), "E8": (120, 696729600, 30)}
        for name, (npos, worder, hck) in table.items():
            rs = liealg.build_root_system(liealg.CartanType.parse(name))
            assert len(rs.positive_roots) == npos and rs.weyl_order == worder
            assert rs.dual_coxeter == hck

    def c_kp():
        rs = liealg.build_root_system(liealg.CartanType.parse("A1"))
        sm = modular.kac_peterson(rs, 1)
        ref = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(sm.entries - ref).max() < 1e-10
        for t, k in [("A2", 2), ("B2", 2)]:
            rs2 = liealg.build_root_system(liealg.CartanType.parse(t))
            s2 = modular.kac_peterson(rs2, k)
            assert s2.unitarity_residual() < 1e-9 and s2.symmetry_residual() < 1e-9

    def c_fusion():
        rs = liealg.build_root_system(liealg.CartanType.parse("A1"))
        for k in range(1, 5):
            tb = fusion.verlinde(modular.kac_peterson(rs, k))
            for a in range(k + 1):
                for b in range(k + 1):
                    for c in range(k + 1):
                        expected = int(
                            abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
                        )
                        assert tb.coefficients[a, b, c] == expected

    def c_principal():
        rs = liealg.build_root_system(liealg.CartanType.parse("A1"))
        counts = {(2, 3): 1, (3, 4): 3, (4, 5): 6}
        for (p, q), n in counts.items():
            lv = affine.make_admissible_level(rs, p, q)
            sm = modular.fkw_principal(lv)
            assert sm.size == n and sm.unitarity_residual() < 1e-9
            fusion.verlinde(sm)

    def c_triple():
        assert qseries.triple_product_check(20)["equal"]

    def c_brst_char():
        rep = qseries.brst_character(12)
        assert rep["telescoped"]

    def c_theta():
        spec = qseries.ThetaSpec(((Fraction(2),),), (Fraction(0),))
        for tau in (1j, 0.5j, 0.25 + 1j):
            assert qseries.modular_transform_check(spec, tau, [0.0], 1e-12)["residual"] < 1e-9

    def c_ope():
        import sympy

        from . import opecalc

        alg = opecalc.heisenberg()
        h = alg.gen("h")
        L = alg.normal_product(h, h).scaled(Fraction(1, 2))
        rep = opecalc.virasoro_test(alg, L)
        assert rep.ok and sympy.cancel(rep.central_charge - 1) == 0
        alg3, L3 = opecalc.sugawara_sl(3)
        rep = opecalc.virasoro_test(alg3, L3)
        k = alg3.param("k")
        assert rep.ok and sympy.cancel(rep.central_charge - 8 * k / (k + 3)) == 0
        algq, q = opecalc.brst_charge_sl2()
        assert opecalc.brst_nilpotency_abelian(algq, q)["nilpotent"]

    def c_kernel_probe():
        for tname, p, q in [("A3", 4, 3), ("D4", 7, 4)]:
            rs = liealg.build_root_system(liealg.CartanType.parse(tname))
            lv = affine.make_admissible_level(rs, p, q)
            labs = affine.subregular_labels(lv)
            cons, _ = modular.conservative_weights(lv, labs)
            k1 = modular.degenerate_kernel(rs, modular.default_probe(rs), p, q, cons[0], cons[0])
            k2 = modular.degenerate_kernel(rs, modular.alternate_probe(rs), p, q, cons[0], cons[0])
            assert abs(k1 - k2) < 1e-9

    check("root/Weyl data", c_roots)
    check("Kac-Peterson", c_kp)
    check("Verlinde sl2", c_fusion)
    check("principal FKW", c_principal)
    check("triple product", c_triple)
    check("BRST character", c_brst_char)
    check("theta modular law", c_theta)
    check("OPE goldens", c_ope)
    check("kernel probe independence", c_kernel_probe)
    if not args.quick:
        def c_subreg():
            rs = liealg.build_root_system(liealg.CartanType.parse("D6"))
            lv = affine.make_admissible_level(rs, 11, 8)
            sm = modular.subregular_S(lv)
            assert sm.size == 3 and sm.unitarity_residual() < 1e-9
            fusion.verlinde(sm)

        check("subregular D6", c_subreg)

    width = max(len(n) for n, *_ in checks)
    ok_all = True
    for name, ok, dt, msg in checks:
        status = "PASS" if ok else "FAIL"
        ok_all &= ok
        line = f"{name:<{width}}  {status}  ({dt:.2f}s)"
        if msg:
            line += f"  {msg}"
        print(line)
    if not ok_all:
        raise CliError("verification failed", EXIT_TOLERANCE)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="affw", description=__doc__)
    ap.add_argument("--version", action="version", version=f"affw {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="root system data as JSON")
    p.add_argument("--type", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("weights", help="S-matrix label sets")
    p.add_argument("--type", required=True)
    p.add_argument("--variant", choices=["principal", "subregular"], default="subregular")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("char", help="characters and q-series")
    p.add_argument("--type", required=True)
    p.add_argument("--kind", choices=["irreducible", "w-vacuum", "brst"], default="irreducible")
    p.add_argument("--level")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--two-var", action="store_true")
    p.add_argument("--y-spec", help="comma-separated cocharacter for y-grading")
    p.add_argument("--out")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("smatrix", help="modular S-matrices")
    p.add_argument("--variant", choices=["integrable", "principal", "subregular"], required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--level", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_smatrix)

    p = sub.add_parser("fusion", help="Verlinde fusion from an S-matrix file")
    p.add_argument("--from", dest="from", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("ope", help="lambda-bracket presets")
    p.add_argument("--preset", choices=["heisenberg", "sugawara", "fermion-current", "brst-sl2"],
                   required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--type", help="Cartan type (type A) as an alternative to --rank")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ope)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except CliError as e:
        print(json.dumps({"error": str(e), "exit_code": e.code}), file=sys.stderr)
        return e.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
