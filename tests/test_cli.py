import hashlib
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from affw import __version__, cli, fusion
from affw.cli import main

from oracles import candidate_vacua_einsum


def run_cli(args, tmp_path=None):
    return main(args)


def test_roots_json(tmp_path, capsys):
    rc = main(["roots", "--type", "A2", "--out", str(tmp_path / "r.json")])
    assert rc == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["dual_coxeter"] == 3
    assert data["weyl_order"] == 6
    assert len(data["positive_roots"]) == 3
    assert data["affw_version"]
    assert data["config"]["type"] == "A2"


# SHA-256 of the stdout of `affw roots`, pinned so that the root data stay
# byte-identical; on a mismatch, diff against a commit that passes
ROOTS_DIGESTS = {
    "A2": "5cc3cea325966ad2461b3c6833d6d62e14d5d7c978f7b1b32cf064c8c8a39ba9",
    "B3": "97c109391b7b7fcb2cc01d5085135c0b9fc7981ed7811f74689f3a264b53dfc5",
    "C3": "6e3c2437fe45ff1c52ccd17b88785ac351336324addeb2d6e222b8b571ec6e71",
    "D6": "6041a0ee197abc657ca8091fca84dfe46e4286b5d1e392ebce4360730fde7d41",
    "E8": "2852fb5e37897bfe8673e08d1d7e8830b47b5a3198aa6225e30d4a0f3383150f",
    "F4": "590c65aa07b2f795aff1c5cd7e02499be45aba9db83cfffdedfd3dd961a78e91",
    "G2": "452c280a59ba4519b41e02a6fea3d035a4d2164f7e4426915abff9dfed5ab601",
}


@pytest.mark.parametrize("name", list(ROOTS_DIGESTS))
def test_roots_output_is_pinned(name, capsys):
    assert main(["roots", "--type", name]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == ROOTS_DIGESTS[name]


def test_roots_invalid_type_exit_code():
    assert main(["roots", "--type", "E9"]) == 2


def test_weights_schema(tmp_path):
    rc = main([
        "weights", "--type", "D6", "--p", "11", "--q", "8",
        "--out", str(tmp_path / "w.json"),
    ])
    assert rc == 0
    data = json.loads((tmp_path / "w.json").read_text())
    assert data["p"] == 11 and data["q"] == 8 and data["type"] == "D6"
    assert len(data["labels"]) == 3
    for row in data["labels"]:
        assert set(row) == {"nu", "eta", "wall"}
        assert row["wall"] is None or isinstance(row["wall"], int)


# stdout of `affw weights`, pinned so that the label order and the printed
# coordinates stay byte-identical; a label reads "nu / eta", plus " / wall"
# for a subregular one
WEIGHTS_LABELS = {
    "subregular E8 30 29": [
        "1 1 1 1 1 1 1 1 / 1 1 1 0 1 1 1 1 / 4", "1 1 1 1 1 1 1 1 / 1 1 1 1 1 1 1 1 / 0",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 1 1 1 0 / 8", "1 1 1 1 1 1 1 1 / 1 1 1 1 1 1 0 2 / 7",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 1 1 0 1 / 7", "1 1 1 1 1 1 1 1 / 1 1 1 1 1 0 2 1 / 6",
        "1 1 1 1 1 1 1 1 / 2 1 1 1 1 1 0 1 / 7", "1 1 1 1 1 1 1 1 / 1 1 1 1 1 0 1 1 / 6",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 0 2 1 1 / 5", "1 1 1 1 1 1 1 1 / 1 2 1 1 1 0 1 1 / 6",
        "1 1 1 1 1 1 1 1 / 3 1 1 0 1 1 1 1 / 4", "1 1 1 1 1 1 1 1 / 3 1 1 1 0 1 1 1 / 5",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 0 1 1 1 / 5", "1 1 1 1 1 1 1 1 / 1 1 1 0 2 1 1 1 / 4",
        "1 1 1 1 1 1 1 1 / 1 1 2 1 0 1 1 1 / 5", "1 1 1 1 1 1 1 1 / 1 1 1 0 1 2 1 1 / 4",
        "1 1 1 1 1 1 1 1 / 2 1 1 0 1 1 2 1 / 4", "1 1 1 1 1 1 1 1 / 1 1 1 0 1 1 2 1 / 4",
        "1 1 1 1 1 1 1 1 / 1 1 0 1 1 1 2 1 / 3", "1 1 1 1 1 1 1 1 / 1 1 1 0 1 1 2 2 / 4",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 0 1 1 3 / 5", "1 1 1 1 1 1 1 1 / 1 2 0 1 1 1 1 1 / 3",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 0 1 2 1 / 5", "1 1 1 1 1 1 1 1 / 2 1 1 1 0 1 1 2 / 5",
        "1 1 1 1 1 1 1 1 / 1 2 1 0 1 1 1 2 / 4", "1 1 1 1 1 1 1 1 / 1 1 1 0 1 1 1 2 / 4",
        "1 1 1 1 1 1 1 1 / 1 0 1 1 1 1 1 2 / 2", "1 1 1 1 1 1 1 1 / 1 1 1 0 1 1 1 3 / 4",
        "1 1 1 1 1 1 1 1 / 2 1 1 0 1 1 1 1 / 4", "1 1 1 1 1 1 1 1 / 1 1 0 1 1 1 1 1 / 3",
        "1 1 1 1 1 1 1 1 / 2 2 1 0 1 1 1 1 / 4", "1 1 1 1 1 1 1 1 / 2 0 1 1 1 1 1 1 / 2",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 0 1 1 2 / 5", "1 1 1 1 1 1 1 1 / 2 1 1 0 1 1 1 2 / 4",
        "1 1 1 1 1 1 1 1 / 2 1 1 1 0 1 1 1 / 5", "1 1 1 1 1 1 1 1 / 1 1 0 1 1 1 1 2 / 3",
        "1 1 1 1 1 1 1 1 / 1 2 1 0 1 1 1 1 / 4", "1 1 1 1 1 1 1 1 / 1 0 1 1 1 1 1 1 / 2",
        "1 1 1 1 1 1 1 1 / 1 1 1 1 1 0 1 2 / 6", "1 1 1 1 1 1 1 1 / 2 1 1 1 1 0 1 1 / 6",
        "1 1 1 1 1 1 1 1 / 1 2 1 1 0 1 1 1 / 5", "1 1 1 1 1 1 1 1 / 1 1 2 0 1 1 1 1 / 4",
        "1 1 1 1 1 1 1 1 / 2 1 0 1 1 1 1 1 / 3", "1 1 1 1 1 1 1 1 / 0 1 1 1 1 1 1 1 / 1",
    ],
    "subregular D4 7 5": [
        "1 1 1 1 / 1 0 1 1 / 2", "1 1 2 1 / 0 1 1 1 / 1", "1 1 1 2 / 0 1 1 1 / 1",
        "1 1 1 1 / 0 1 1 1 / 1", "1 1 1 2 / 1 0 1 1 / 2", "1 1 2 1 / 1 0 1 1 / 2",
        "2 1 1 1 / 0 1 1 1 / 1", "2 1 1 1 / 1 0 1 1 / 2",
    ],
    "subregular D6 11 8": [
        "1 1 1 1 1 1 / 1 1 1 0 1 1 / 4", "1 1 1 1 1 1 / 1 1 0 1 1 1 / 3",
        "1 1 1 1 1 2 / 1 1 1 0 1 1 / 4",
    ],
    "principal A2 8 5": [
        "1 1 / 1 1", "1 2 / 1 1", "1 3 / 1 1", "1 4 / 1 1", "1 5 / 1 1", "1 6 / 1 1", "2 1 / 1 1",
        "2 2 / 1 1", "2 3 / 1 1", "2 4 / 1 1", "2 5 / 1 1", "3 1 / 1 1", "3 2 / 1 1", "3 3 / 1 1",
        "3 4 / 1 1", "4 1 / 1 1", "4 2 / 1 1", "4 3 / 1 1", "5 1 / 1 1", "5 2 / 1 1", "6 1 / 1 1",
        "1 1 / 1 2", "1 2 / 1 2", "1 3 / 1 2", "1 4 / 1 2", "1 5 / 1 2", "1 6 / 1 2", "2 1 / 1 2",
        "2 2 / 1 2", "2 3 / 1 2", "2 4 / 1 2", "2 5 / 1 2", "3 1 / 1 2", "3 2 / 1 2", "3 3 / 1 2",
        "3 4 / 1 2", "4 1 / 1 2", "4 2 / 1 2", "4 3 / 1 2", "5 1 / 1 2", "5 2 / 1 2", "6 1 / 1 2",
    ],
    "principal A1 11 10": [
        "1 / 1", "2 / 1", "3 / 1", "4 / 1", "5 / 1", "6 / 1", "7 / 1", "8 / 1", "9 / 1", "10 / 1",
        "1 / 2", "2 / 2", "3 / 2", "4 / 2", "5 / 2", "6 / 2", "7 / 2", "8 / 2", "9 / 2", "10 / 2",
        "1 / 3", "2 / 3", "3 / 3", "4 / 3", "5 / 3", "6 / 3", "7 / 3", "8 / 3", "9 / 3", "10 / 3",
        "1 / 4", "2 / 4", "3 / 4", "4 / 4", "5 / 4", "6 / 4", "7 / 4", "8 / 4", "9 / 4", "10 / 4",
        "1 / 5", "2 / 5", "3 / 5", "4 / 5", "5 / 5",
    ],
}


@pytest.mark.parametrize("spec", list(WEIGHTS_LABELS))
def test_weights_output_is_pinned(spec, capsys):
    variant, name, p, q = spec.split()
    assert main(["weights", "--type", name, "--p", p, "--q", q, "--variant", variant]) == 0
    rows = []
    for label in WEIGHTS_LABELS[spec]:
        nu, eta, *wall = label.split(" / ")
        rows.append({"eta": eta.split(), "nu": nu.split(), "wall": int(wall[0]) if wall else None})
    config = {"command": "weights", "p": int(p), "q": int(q), "type": name, "variant": variant}
    payload = {"affw_version": __version__, "config": config, "labels": rows,
               "p": int(p), "q": int(q), "type": name}
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_weights_unsupported_type_exit_code(tmp_path):
    assert main(["weights", "--type", "B3", "--p", "7", "--q", "5"]) == 4


def test_weights_validation_exit_code():
    assert main(["weights", "--type", "D6", "--p", "4", "--q", "8"]) == 2


def test_smatrix_integrable_and_fusion_roundtrip(tmp_path):
    spath = tmp_path / "s.json"
    rc = main(["smatrix", "--variant", "integrable", "--type", "A1", "--level", "1",
               "--out", str(spath)])
    assert rc == 0
    data = json.loads(spath.read_text())
    assert data["normalization"] == "unitary"
    assert data["unitarity_residual"] < 1e-10
    m = np.array([[complex(re, im) for re, im in row] for row in data["matrix"]])
    ref = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(m - ref).max() < 1e-10

    fpath = tmp_path / "f.json"
    rc = main(["fusion", "--from", str(spath), "--out", str(fpath)])
    assert rc == 0
    fdata = json.loads(fpath.read_text())
    assert fdata["vacuum"] == 0
    assert fdata["max_coefficient"] == 1
    # two labels: varpi x varpi = vacuum
    assert {"a": 1, "b": 1, "c": 0, "N": 1} in fdata["coefficients"]


def test_fusion_csv(tmp_path):
    spath = tmp_path / "s.json"
    main(["smatrix", "--variant", "integrable", "--type", "A1", "--level", "2",
          "--out", str(spath)])
    cpath = tmp_path / "f.csv"
    rc = main(["fusion", "--from", str(spath), "--format", "csv", "--out", str(cpath)])
    assert rc == 0
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "a,b,c,N"
    assert len(lines) > 3


def test_fusion_json_and_csv_list_the_same_entries(tmp_path):
    spath, jpath, cpath = tmp_path / "s.json", tmp_path / "f.json", tmp_path / "f.csv"
    main(["smatrix", "--variant", "integrable", "--type", "A2", "--level", "3", "--out", str(spath)])
    assert main(["fusion", "--from", str(spath), "--out", str(jpath)]) == 0
    assert main(["fusion", "--from", str(spath), "--format", "csv", "--out", str(cpath)]) == 0
    from_json = [[e["a"], e["b"], e["c"], e["N"]] for e in json.loads(jpath.read_text())["coefficients"]]
    from_csv = [list(map(int, line.split(","))) for line in cpath.read_text().splitlines()[1:]]
    table = fusion.verlinde(cli._read_smatrix(spath)).coefficients
    expected = [
        [a, b, c, int(table[a, b, c])]
        for a in range(len(table)) for b in range(len(table)) for c in range(len(table))
        if table[a, b, c]
    ]
    assert from_json == from_csv == expected
    assert max(row[3] for row in expected) == 2


def test_declared_vacuum_survives_the_file_round_trip(tmp_path):
    # Principal A2 (7,4) has three integral rows (0, 4, 14), none with positive
    # quantum dimensions; only the declared vacuum written by `smatrix`
    # singles out row 0.
    spath, fpath = tmp_path / "s.json", tmp_path / "f.json"
    rc = main(["smatrix", "--variant", "principal", "--type", "A2", "--p", "7", "--q", "4",
               "--out", str(spath)])
    assert rc == 0
    assert json.loads(spath.read_text())["vacuum"] == 0
    sm = cli._read_smatrix(spath)
    assert sm.provenance == {"vacuum": 0}
    assert candidate_vacua_einsum(sm.entries) == [0, 4, 14]
    assert main(["fusion", "--from", str(spath), "--out", str(fpath)]) == 0
    assert json.loads(fpath.read_text())["vacuum"] == 0


def test_fusion_without_a_declared_vacuum_names_the_candidates(tmp_path, capsys):
    # the same file without its "vacuum" key: the one row with positive
    # quantum dimensions (6) is not integral, so the full scan finds three
    # candidates and refuses
    spath, fpath = tmp_path / "s.json", tmp_path / "f.json"
    assert main(["smatrix", "--variant", "principal", "--type", "A2", "--p", "7", "--q", "4",
                 "--out", str(spath)]) == 0
    data = json.loads(spath.read_text())
    del data["vacuum"]
    spath.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["fusion", "--from", str(spath), "--out", str(fpath)]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "vacuum is not unique: candidates [0, 4, 14]"
    assert not fpath.exists()


def test_smatrix_principal(tmp_path):
    spath = tmp_path / "s.json"
    rc = main(["smatrix", "--variant", "principal", "--type", "A1", "--p", "3", "--q", "4",
               "--out", str(spath)])
    assert rc == 0
    data = json.loads(spath.read_text())
    assert len(data["labels"]) == 3
    assert data["unitarity_residual"] < 1e-9


def test_smatrix_subregular_d6(tmp_path):
    spath = tmp_path / "s.json"
    rc = main(["smatrix", "--variant", "subregular", "--type", "D6", "--p", "11", "--q", "8",
               "--out", str(spath)])
    assert rc == 0
    data = json.loads(spath.read_text())
    assert len(data["labels"]) == 3
    assert data["labels"][0]["wall"] in (3, 4)


# SHA-256 of the stdout of `affw smatrix` without its elapsed_s line, pinned so
# that labels, matrix entries and the declared vacuum stay byte-identical; on a
# mismatch, diff the printed payload against one from a commit that passes
SMATRIX_DIGESTS = {
    "--variant subregular --type D4 --p 7 --q 5":
        "46caf191f530c00a272ffa6d15e8454db835b2dc55e63fee2f889eac79a9fc5d",
    "--variant subregular --type D4 --p 9 --q 4":
        "e65672ba949e04a75456d908578fedeeddb92697decd2c9dd3b138cc53d64ae0",
    "--variant subregular --type D5 --p 9 --q 7":
        "681189beb8e0f6622f0320c125d49728e691f6eb440336906b98cccf2beb8f60",
    "--variant subregular --type D6 --p 11 --q 8":
        "0ef1f084aafc2411c7aa91a89718edd3c28ae2bf83045ad97b361f2f9f16bae9",
    "--variant principal --type A2 --p 8 --q 5":
        "1b5aa78308a748e215a0a115b222e0d9ad0fd7bef6298751dfda59f83e7f36e4",
    "--variant integrable --type A2 --level 3":
        "503016907272d55f96a3102ee62a6b32c9b8836ae1ad346356b20cb6ab1d30d6",
}


@pytest.mark.parametrize("spec", list(SMATRIX_DIGESTS))
def test_smatrix_output_is_pinned(spec, capsys):
    assert main(["smatrix", *spec.split()]) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["elapsed_s"]
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == SMATRIX_DIGESTS[spec]


@pytest.mark.parametrize("argv", [["smatrix", *spec.split()] for spec in SMATRIX_DIGESTS]
                         + [["weights", "--type", "D6", "--p", "11", "--q", "8"]])
def test_stdout_is_the_indented_dump_byte_for_byte(argv, capsys):
    # the output contract: ASCII JSON, keys sorted, two-space indent
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


# SHA-256 of the stdout of `affw fusion --from s.json` without its
# rounding_residual line (a float the BLAS build may move), and of the CSV
# table, pinned so that the written bytes stay identical
FUSION_DIGESTS = {
    "--variant integrable --type A2 --level 6":
        "ec51c56279c4a2c075d172aed308bac52ff3d080bbc570ccfa81680bd7a50bf3",
    "--variant principal --type A1 --p 11 --q 10":
        "743eae5410e0b0cf36575d6ca1416ec5d64f4774017b1cb9044d0657e18a6e07",
}
FUSION_CSV_DIGEST = "cac540ecfd8bdc1628aed503851a5cfda674553044f9fa58156038de18d0cc6a"


@pytest.mark.parametrize("spec", list(FUSION_DIGESTS))
def test_fusion_output_is_pinned(spec, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # config.from is the path as given
    assert main(["smatrix", *spec.split(), "--out", "s.json"]) == 0
    capsys.readouterr()
    assert main(["fusion", "--from", "s.json"]) == 0
    out = capsys.readouterr().out
    kept = "".join(line for line in out.splitlines(True) if '"rounding_residual"' not in line)
    assert len(kept) < len(out)
    assert hashlib.sha256(kept.encode()).hexdigest() == FUSION_DIGESTS[spec]


_HOSTILE = ['"', "\\", '\\"', "\\\\", "[", "]", "{", "}", ",", ":", ": ", "\n", "\\u00e9",
            "é", "∑", "\ud800", "\x00", " ", "a", '", "', '"]', "[]", "{}", '{"a": 1}']


def _random_json(r: random.Random, depth: int = 0):
    """A random value json.dumps can write: nested lists, tuples and dicts
    (empty ones at every depth), dict keys of one kind per dict (str, int,
    float or bool), and hostile strings and floats."""
    kind = r.randrange(4) if depth < 6 else 0
    if kind == 0:
        return r.choice([
            None, True, False, 0, r.randrange(-(10 ** 30), 10 ** 30),
            r.uniform(-1, 1) * 10.0 ** r.randrange(-30, 30),
            math.nan, math.inf, -math.inf, -0.0, np.float64(r.random()),
            "".join(r.choice(_HOSTILE) for _ in range(r.randrange(5))),
        ])
    size = r.randrange(4)  # 0: an empty container
    if kind == 1:
        return [_random_json(r, depth + 1) for _ in range(size)]
    if kind == 2:
        return tuple(_random_json(r, depth + 1) for _ in range(size))
    key = r.choice([
        lambda: "".join(r.choice(_HOSTILE) for _ in range(r.randrange(4))),
        lambda: r.randrange(-100, 100),
        lambda: r.choice([0.5, -0.0, 1e20, math.inf, -math.inf, np.float64(0.25)]),
        lambda: r.choice([True, False]),
    ])
    return {key(): _random_json(r, depth + 1) for _ in range(size)}


def test_dumps_is_json_dumps_indented_byte_for_byte():
    for seed in range(3000):
        obj = _random_json(random.Random(seed))
        assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True), seed
    for obj in ([[[[]]], {}], {"a": {"b": {"c": []}}, "d": [{}]}, "[1, {}]", [], {}, 0, -0.0):
        assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [{1: 0, "1": 0}, [0, {"a": {None: 0, True: 1}}], {0.5: 0, "x": 1}])
def test_dumps_refuses_mixed_keys_like_json_dumps(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dumps(obj)


def test_fusion_csv_is_pinned(tmp_path):
    spath, cpath = tmp_path / "s.json", tmp_path / "f.csv"
    assert main(["smatrix", "--variant", "integrable", "--type", "A2", "--level", "6",
                 "--out", str(spath)]) == 0
    assert main(["fusion", "--from", str(spath), "--format", "csv", "--out", str(cpath)]) == 0
    assert hashlib.sha256(cpath.read_bytes()).hexdigest() == FUSION_CSV_DIGEST


def test_bad_input_exits_cleanly(tmp_path, capsys, monkeypatch):
    smatrix = tmp_path / "s.json"
    assert main(["smatrix", "--variant", "integrable", "--type", "A1", "--level", "1",
                 "--out", str(smatrix)]) == 0
    no_dir = tmp_path / "missing"
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"labels": [0, 1], "matrix": [[1, 0], [0, 1]]}))
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"labels": [0, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    bad_vacuum = tmp_path / "bad_vacuum.json"
    bad_vacuum.write_text(json.dumps({"labels": [0, 1], "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                      "vacuum": 2}))
    labels_dict = tmp_path / "labels_dict.json"
    labels_dict.write_text(json.dumps({"labels": {"a": 1}, "matrix": [[[1, 0]]]}))
    s_data = json.loads(smatrix.read_text())
    non_finite = {}
    for name, x in [("inf", float("inf")), ("nan", float("nan"))]:
        s_data["matrix"][0][1] = [x, 0.0]
        non_finite[name] = tmp_path / f"{name}.json"
        non_finite[name].write_text(json.dumps(s_data))
    table = [
        ["smatrix", "--variant", "principal", "--type", "A1", "--p", "3"],
        ["smatrix", "--variant", "subregular", "--type", "D4", "--q", "5"],
        ["char", "--type", "A1", "--level", "1", "--order", "-1"],
        ["fusion", "--from", str(pairs)],
        ["fusion", "--from", str(ragged)],
        ["fusion", "--from", str(garbage)],
        ["fusion", "--from", str(tmp_path / "missing.json")],
        ["fusion", "--from", str(bad_vacuum)],
        ["fusion", "--from", str(labels_dict)],
        ["ope", "--preset", "sugawara", "--type", "B2"],
        ["fusion", "--from", str(non_finite["inf"])],
        ["fusion", "--from", str(non_finite["nan"])],
        ["char", "--type", "A1", "--level", "abc"],
        ["char", "--type", "A1", "--level", "1", "--y-spec", "x"],
        ["char", "--type", "A2", "--level", "1", "--order", "2", "--y-spec", "1/2,0"],
        ["char", "--type", "A1", "--level", "1", "--y-spec", "1,2,3"],
        ["ope", "--preset", "sugawara", "--type", "X9"],
        ["ope", "--preset", "sugawara", "--rank", "-3"],
        ["ope", "--preset", "sugawara", "--rank", "0"],
        ["ope", "--preset", "sugawara", "--rank", "1", "--type", "A3"],
        ["char", "--type", "A1", "--p", "3", "--q", "0"],
        ["char", "--type", "A1", "--level", "10000000000000000000", "--order", "2"],
        ["char", "--type", "A1", "--level", "1e400", "--order", "2"],
        ["ope", "--preset", "sugawara", "--rank", "100000"],
        ["smatrix", "--variant", "principal", "--type", "A1", "--p", "3", "--q", "1"],
        ["smatrix", "--variant", "principal", "--type", "A2", "--p", "5", "--q", "2"],
        ["smatrix", "--variant", "principal", "--type", "B2", "--p", "5", "--q", "2"],
        # rejected by the argument parser itself
        ["char", "--type", "A1", "--order", "abc"],
        ["smatrix", "--variant", "nope", "--type", "A1"],
        ["roots"],
        ["roots", "--type", "A1", "--bogus"],
        ["smatrix", "--variant", "subregular", "--type", "D4", "--p", "7", "--q", "4", "--workers", "2"],
        ["smatrix", "--variant", "subregular", "--type", "D4", "--p", "7", "--q", "4",
         "--checkpoint", str(tmp_path / "x.npz")],
        ["smatrix", "--variant", "subregular", "--type", "D4", "--p", "7", "--q", "4",
         "--checkpoint-every", "5"],
        ["smatrix", "--variant", "subregular", "--type", "D4", "--p", "7", "--q", "4", "--probe", "alt"],
        # a rank past the cap, refused before any root data are built
        ["roots", "--type", "A33"],
        # a rank in non-ASCII digits (the Extended Arabic-Indic two)
        ["roots", "--type", "A\u06f2"],
        # output paths that cannot be opened
        ["roots", "--type", "A1", "--out", str(no_dir / "x.json")],
        ["fusion", "--from", str(smatrix), "--format", "csv", "--out", str(no_dir / "f.csv")],
    ]
    # a flag that the chosen variant ignores: the flag and the variant the error names
    ignored = {
        "smatrix --variant principal --type A1 --p 3 --q 4 --level 7": ("--level", "--variant principal"),
        "smatrix --variant subregular --type D4 --p 7 --q 4 --level 7": ("--level", "--variant subregular"),
        "smatrix --variant integrable --type A1 --level 2 --p 3": ("--p", "--variant integrable"),
        "smatrix --variant integrable --type A1 --level 2 --q 4": ("--q", "--variant integrable"),
        "char --type A1 --level 1 --p 3 --q 2": ("--level", "--p/--q"),
        "char --type A1 --level 1 --q 2": ("--level", "--p/--q"),
        "char --type A1 --level 1 --two-var --y-spec 1": ("--y-spec", "--two-var"),
        "char --type A1 --kind brst --y-spec default": ("--y-spec", "--kind brst"),
        "ope --preset heisenberg --rank 2": ("--rank", "--preset heisenberg"),
        "ope --preset brst-sl2 --type A1": ("--type", "--preset brst-sl2"),
    }
    for kind in ("w-vacuum", "brst"):
        for flag in ("--level 1", "--p 3", "--q 2", "--two-var", "--y-spec 1"):
            ignored[f"char --type A1 --kind {kind} {flag}"] = (flag.split()[0], f"--kind {kind}")
    table += [argv.split() for argv in ignored]
    errors, codes = {}, {}

    def run(argv):
        rc = main(argv)
        codes[" ".join(argv)] = rc
        err = capsys.readouterr().err.strip().splitlines()
        assert rc in (2, 3, 4), argv
        assert len(err) == 1, (argv, err)
        assert json.loads(err[0])["exit_code"] == rc
        errors[" ".join(argv)] = json.loads(err[0])["error"]

    for argv in table:
        run(argv)
    monkeypatch.setenv("AFFW_OUT_DIR", str(no_dir))
    run(["roots", "--type", "A1"])
    assert errors["char --type A1 --p 3 --q 0"] == "p and q must be positive integers"
    for level in ("10000000000000000000", "1e400"):
        assert codes[f"char --type A1 --level {level} --order 2"] == 2
        assert errors[f"char --type A1 --level {level} --order 2"].startswith("level or weight too large")
    assert codes["ope --preset sugawara --rank 100000"] == 4
    assert "need 2 <= n <= 10, not n = 100001" in errors["ope --preset sugawara --rank 100000"]
    assert codes["ope --preset sugawara --rank 1 --type A3"] == 2
    assert "not both" in errors["ope --preset sugawara --rank 1 --type A3"]
    assert "vacuum must be a label index" in errors[f"fusion --from {bad_vacuum}"]
    assert "labels must be a list, not dict" in errors[f"fusion --from {labels_dict}"]
    assert codes["ope --preset sugawara --type B2"] == 4
    assert errors["ope --preset sugawara --type B2"] == (
        "affine preset has structure constants for type A only, not B2")
    for argv, (flag, where) in ignored.items():
        assert codes[argv] == 2 and flag in errors[argv] and where in errors[argv], argv
    for path in non_finite.values():
        assert codes[f"fusion --from {path}"] == 2
        assert "must be finite" in errors[f"fusion --from {path}"]
    assert all(rc == 2 for argv, rc in codes.items() if argv.startswith("smatrix"))
    assert "empty principal label set" in errors["smatrix --variant principal --type B2 --p 5 --q 2"]
    for flag in ("--workers", "--checkpoint", "--checkpoint-every", "--probe"):
        removed = [e for argv, e in errors.items() if argv.startswith("smatrix") and f" {flag} " in argv]
        assert len(removed) == 1 and f"unrecognized arguments: {flag} " in removed[0], flag
    assert not (tmp_path / "x.npz").exists()
    assert "invalid int value: 'abc'" in errors["char --type A1 --order abc"]
    assert "required: --type" in errors["roots"]
    assert codes["roots --type A33"] == 2 and "rank 33 is above" in errors["roots --type A33"]
    assert "unrecognized arguments: --bogus" in errors["roots --type A1 --bogus"]
    assert errors["roots --type A1"].startswith(f"cannot write {no_dir / 'roots_A1.json'}:")
    assert codes[f"roots --type A1 --out {no_dir / 'x.json'}"] == 2
    assert not no_dir.exists()


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out and not out.err


def test_char_irreducible(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["char", "--type", "A1", "--level", "1", "--order", "6", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["exponent_den"] == 1
    coeffs = {tuple(map(str, [e])): c for e, c in data["coeffs"]}
    assert data["coeffs"][0] == ["0/1", "1/1"]


def test_char_two_var_prints_only_exact_terms(capsys):
    rc = main(["char", "--type", "A1", "--level", "1", "--order", "10", "--two-var"])
    assert rc == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    # L_1(sl2) below q^11: the weights m alpha with m^2 <= 10
    assert sorted(int(t["weight"][0]) for t in terms) == [-6, -4, -2, 0, 2, 4, 6]
    assert all(t["series"]["order"] == "11/1" for t in terms)


def test_char_w_vacuum(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["char", "--type", "A2", "--kind", "w-vacuum", "--order", "4", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    got = {e: c for e, c in data["coeffs"]}
    assert got["2/1"] == "1/1" and got["3/1"] == "2/1" and got["4/1"] == "3/1"


def test_char_requires_level_or_pq():
    assert main(["char", "--type", "A1"]) == 2


def test_char_oversized_window_exits_cleanly(monkeypatch, capsys):
    from affw import qseries

    monkeypatch.setattr(qseries, "MAX_BOX_CELLS", 100)
    assert main(["char", "--type", "A2", "--level", "1", "--order", "2"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "cells, more than the limit of 100" in json.loads(err[0])["error"]


def test_char_e8_window_is_refused_before_the_walk(capsys):
    assert main(["char", "--type", "E8", "--level", "1", "--order", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "cells, more than the limit of" in json.loads(err[0])["error"]


def test_char_y_spec(tmp_path):
    out = tmp_path / "c.json"
    rc = main(["char", "--type", "A1", "--level", "1", "--order", "4",
               "--y-spec", "1/2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert "y_series" in data
    assert "0" in data["y_series"]


def test_ope_preset(capsys):
    rc = main(["ope", "--preset", "heisenberg"])
    assert rc == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["results"]["central_charge"] == "1"


# stdout results of `affw ope`, pinned so that printing lambda-brackets and
# central charges stays byte-identical whatever the scalar type inside
OPE_RESULTS = {
    "heisenberg": {
        "[L_la L]": "(1)*:h T h: + lambda^1 * [(1)*:h h:] + lambda^3 * [(1/12)*1]",
        "[L_la h]": "(1)*T h + lambda^1 * [(1)*h]",
        "[h_la h]": "lambda^1 * [(1)*1]",
        "central_charge": "1",
    },
    "sugawara": {"algebra": "sl2", "central_charge": "3*k/(k + 2)", "virasoro": True},
    "sugawara --rank 2": {"algebra": "sl3", "central_charge": "8*k/(k + 3)", "virasoro": True},
    "sugawara --rank 3": {"algebra": "sl4", "central_charge": "15*k/(k + 4)", "virasoro": True},
    "fermion-current": {
        "[F^e_la F^f]": "(1)*:phi1 phis1: + (-1)*:phi2 phis2: + lambda^1 * [(1)*1]",
        "[F^h_la F^h]": "lambda^1 * [(2)*1]",
    },
    "brst-sl2": {"Q": "(1)*phis + (1)*:E12 phis:", "nilpotent": True, "residual": {}},
}


@pytest.mark.parametrize("spec", list(OPE_RESULTS))
def test_ope_preset_output_is_pinned(spec, capsys):
    preset, *rest = spec.split()
    assert main(["ope", "--preset", preset, *rest]) == 0
    config = {"command": "ope", "preset": preset}
    if rest:
        config["rank"] = int(rest[1])
    payload = {"affw_version": __version__, "config": config, "results": OPE_RESULTS[spec]}
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_ope_sugawara_by_type_matches_by_rank(capsys):
    assert main(["ope", "--preset", "sugawara", "--type", "A2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == OPE_RESULTS["sugawara --rank 2"]


def _series(coeffs, top, den=1):
    """JSON of a q-series: ``coeffs`` maps exponent numerators over ``den``
    (a list: 0, 1, 2, ...) to integer coefficients; ``top/den`` is its order."""
    if isinstance(coeffs, list):
        coeffs = dict(enumerate(coeffs))
    return {"coeffs": [[f"{e}/{den}", f"{c}/1"] for e, c in coeffs.items()],
            "exponent_den": den, "order": f"{top}/{den}"}


def _a2_term(weight, coeffs):
    return {"series": _series(coeffs, 3), "weight": weight}


# stdout of `affw char` past its config block, pinned so that the depth
# window, the division engine and the q-series printing stay byte-identical
CHAR_RESULTS = {
    "--type A1 --level 1 --order 12": _series(
        [1, 3, 4, 7, 13, 19, 29, 43, 62, 90, 126, 174, 239], 13),
    "--type A2 --level 1 --order 2 --two-var": {"terms": [
        _a2_term(["-2", "1"], {1: 1, 2: 2}), _a2_term(["-1", "-1"], {1: 1, 2: 2}),
        _a2_term(["-1", "2"], {1: 1, 2: 2}), _a2_term(["0", "0"], [1, 2, 5]),
        _a2_term(["1", "-2"], {1: 1, 2: 2}), _a2_term(["1", "1"], {1: 1, 2: 2}),
        _a2_term(["2", "-1"], {1: 1, 2: 2}),
    ]},
    "--type B2 --level 1 --order 2": _series([1, 10, 30], 3),
    "--type D4 --level 1 --order 1": _series([1, 28], 2),  # the default window is ht(theta) = 5 deep
    "--type A1 --p 3 --q 2 --order 8": _series(
        {2 * i: c for i, c in enumerate([1, 3, 9, 22, 46, 93, 176, 319, 562])}, 17, den=2),
    "--type E8 --kind w-vacuum --order 8": _series(
        {0: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 4, 8: 8}, 9),
    "--type A1 --kind brst --order 6": {
        "telescoped": True,
        "two_var": [{"coeff": str(c), "q": q, "y": 0} for q, c in enumerate([1, 1, 2, 3, 5, 7, 11])]
        + [{"coeff": str(-c), "q": q, "y": 1} for q, c in enumerate([1, 1, 2, 3, 5, 7], 1)],
        "y1_limit": _series({0: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 4}, 7),
    },
}


@pytest.mark.parametrize("spec", list(CHAR_RESULTS))
def test_char_output_is_pinned(spec, capsys):
    argv = spec.split()
    assert main(["char", *argv]) == 0
    config = {"command": "char", "kind": "irreducible", "two_var": "--two-var" in argv}
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--type", "--kind", "--level"):
            config[flag[2:]] = value
        elif flag in ("--p", "--q", "--order"):
            config[flag[2:]] = int(value)
    payload = {"affw_version": __version__, "config": config, **CHAR_RESULTS[spec]}
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_verify_quick(capsys):
    rc = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_full(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert any(line.startswith("subregular D6") and "PASS" in line for line in out.splitlines())


def test_reproducible_output(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["roots", "--type", "D4", "--out", str(p1)])
    main(["roots", "--type", "D4", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_import_leaves_sympy_unloaded():
    # only `ope` and `verify` need sympy; every other command starts without it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, affw.cli; print('sympy' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "affw.cli", "roots", "--type", "A1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["dual_coxeter"] == 2
