import argparse
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import affw
from affw.cli import build_parser

MODULES = sorted(m.name for m in pkgutil.iter_modules(affw.__path__))
BENCH_FILES = ("jobs.py", "oracles.py")

# The public surface, one literal set per module, so that adding or dropping a
# public name is an edit here.  `affw` itself exports only its version: names
# are imported from the submodules.  `affw.cli` has no `__all__`; its surface
# is the command line and `main`.
PUBLIC = {
    "affw": {"__version__"},
    "affw.affine": {
        "AdmissibleLevel", "PrincipalLabel", "SubregularLabel", "alpha_star", "enumerate_P_plus_k",
        "make_admissible_level", "principal_labels", "subregular_labels",
    },
    "affw.cli": None,
    "affw.fusion": {"FusionError", "FusionTable", "find_vacuum", "fusion_ring_isomorphic", "verlinde"},
    "affw.liealg": {
        "CartanType", "LieAlgebraError", "Root", "RootSystem", "Weight", "WeylBlock", "WeylElement",
        "build_root_system", "weyl_blocks", "weyl_stream",
    },
    "affw.modular": {
        "SMatrix", "SMatrixError", "alternate_probe", "default_probe", "degenerate_kernel",
        "fkw_principal", "kac_peterson", "subregular_S",
    },
    "affw.opecalc": {
        "ConformalAlgebra", "Field", "Generator", "LambdaPolynomial", "OpeError",
        "UnsupportedDepthError", "VirasoroReport", "affine", "affine_sl", "brst_charge_sl2",
        "brst_nilpotency_abelian", "charged_fermions", "fermion_current", "heisenberg",
        "register_algebra", "sugawara_sl", "tensor_algebra", "virasoro_test",
    },
    "affw.qseries": {
        "QSeries", "QSeriesError", "ThetaSpec", "TwoVarCharacter", "brst_character",
        "eta_like_product", "irreducible_character", "kac_wakimoto_numerator",
        "modular_transform_check", "principal_w_weights", "theta_eval", "triple_product_check",
        "verma_character", "w_vacuum_character",
    },
}

# The command line, one literal flag set per `affw` subcommand (`-h/--help`
# aside), so that adding or dropping a flag is an edit here too.
CLI_FLAGS = {
    "roots": {"--type", "--out"},
    "weights": {"--type", "--variant", "--p", "--q", "--out"},
    "char": {"--type", "--kind", "--level", "--p", "--q", "--order", "--two-var", "--y-spec", "--out"},
    "smatrix": {"--variant", "--type", "--level", "--p", "--q", "--out"},
    "fusion": {"--from", "--format", "--out"},
    "ope": {"--preset", "--rank", "--type", "--out"},
    "verify": {"--quick"},
}


def test_every_module_is_pinned():
    assert set(PUBLIC) == {"affw"} | {f"affw.{m}" for m in MODULES}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_surface_is_pinned(name):
    exported = getattr(importlib.import_module(name), "__all__", None)
    if PUBLIC[name] is None:
        assert exported is None
    else:
        assert len(exported) == len(set(exported)) and set(exported) == PUBLIC[name]


def test_cli_flags_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    assert flags == CLI_FLAGS


@pytest.mark.parametrize("name", ["affw"] + [f"affw.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def _bench_calls(tree: ast.Module):
    """Resolve the benchmark's uses of affw: (missing attributes, calls).

    Names come from its ``from affw[.mod] import ...`` lines.  A call is
    ``(text, function, positional count or None, keyword names)`` for a
    direct call of an affw callable and for ``rec.call(span, fn, *args,
    **kwargs)``, which forwards the arguments to ``fn``.
    """
    names, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "affw":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(module, alias.name, None)
                if obj is None:
                    missing.append(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = obj

    def resolve(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            if owner is not None:
                if not hasattr(owner, node.attr):
                    missing.append(ast.unparse(node))
                    return None
                return getattr(owner, node.attr)
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if ast.unparse(func) == "rec.call" and len(args) >= 2:
            func, args = args[1], args[2:]
        fn = resolve(func)
        if callable(fn) and not inspect.ismodule(fn):
            npos = None if any(isinstance(a, ast.Starred) for a in args) else len(args)
            kws = [k.arg for k in node.keywords]
            calls.append((ast.unparse(node), fn, npos, kws))
    return sorted(set(missing)), calls


@pytest.mark.parametrize("filename", BENCH_FILES)
def test_benchmark_calls_into_affw_resolve(filename):
    """Every affw attribute the benchmark names exists, and every call it
    makes binds to the callee's signature, so removing a library name or a
    parameter the benchmark still uses fails here and not only in a run."""
    path = Path(__file__).resolve().parents[1] / "affwbench" / filename
    missing, calls = _bench_calls(ast.parse(path.read_text(), str(path)))
    assert not missing, f"{filename} uses undefined affw attributes {missing}"
    unbound = []
    for text, fn, npos, kws in calls:
        sig = inspect.signature(fn)
        try:
            if npos is None or None in kws:  # *args or **kwargs: check the names only
                params = sig.parameters.values()
                assert any(p.kind is p.VAR_KEYWORD for p in params) or {k for k in kws if k} <= {
                    p.name for p in params}
            else:
                sig.bind(*[None] * npos, **{k: None for k in kws})
        except (TypeError, AssertionError) as e:
            unbound.append(f"{text}: {e}")
    assert not unbound, f"{filename} calls affw with arguments it does not take: {unbound}"
    if filename == "jobs.py":
        called = {getattr(fn, "__qualname__", "") for _, fn, _, _ in calls}
        # the forwarded calls are seen, with their keywords
        assert {"subregular_S", "kac_wakimoto_numerator", "build_root_system", "main"} <= called
        assert any(kws == ["checkpoint", "checkpoint_every", "workers"] for *_, kws in calls)
