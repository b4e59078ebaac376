import argparse
import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

from latticeface.cli import build_parser, main
from latticeface.ehrhart import EHRHART_METHODS
from latticeface.document import (
    load_polytope,
    polytope_from_document,
    polytope_to_document,
    save_polytope,
)
from latticeface.polytope import Polytope
from latticeface.report import format_rational
from oracles import cyclic_volume

P1_DOC = {"ambient_dim": 3, "vertices": [[0, 0, 0], [4, 0, 0], [3, 6, 0], [2, 2, 2]]}
SQUARE_DOC = {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}
P2_DOC = {"ambient_dim": 3, "vertices": [[0, 0, 0], [4, 0, 0], [3, 3, 0], [2, 1, 5]]}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in (("p1", P1_DOC), ("square", SQUARE_DOC), ("p2", P2_DOC)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_document_roundtrip():
    poly = polytope_from_document(P1_DOC)
    assert polytope_from_document(polytope_to_document(poly)) == poly


def test_document_rational_strings():
    doc = {"ambient_dim": 1, "vertices": [["1/2"], [3]]}
    poly = polytope_from_document(doc)
    assert polytope_to_document(poly)["vertices"] == [["1/2"], [3]]


def test_document_rejects_floats_and_bad_shapes():
    with pytest.raises(ValueError):
        polytope_from_document({"ambient_dim": 1, "vertices": [[0.5]]})
    with pytest.raises(ValueError):
        polytope_from_document({"ambient_dim": 2, "vertices": [[1]]})
    with pytest.raises(ValueError):
        polytope_from_document({"vertices": []})
    with pytest.raises(ValueError):
        polytope_from_document({"ambient_dim": 1, "vertices": [["1/0"]]})


def test_build_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cli_output_unchanged_by_a_failed_parse(docs, capsys):
    argv = ["slices", docs["p1"], "--k", "2"]
    assert main(argv) == 0
    before = capsys.readouterr()
    assert main(["slices", docs["p1"], "--format", "json", "--k", "two"]) == 1
    assert "invalid int value" in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr() == before


def test_cli_ehrhart_p1(docs, capsys):
    code, data = run_json(capsys, ["ehrhart", docs["p1"]])
    assert code == 0
    assert data["coefficients"] == [1, 4, 10, 8]
    code, data = run_json(capsys, ["ehrhart", docs["p1"], "--method", "interpolate"])
    assert code == 0
    assert data["coefficients"] == [1, 4, 10, 8]


def test_cli_ehrhart_methods_agree(docs, capsys):
    for path in (docs["p1"], docs["square"]):
        _, auto = run_json(capsys, ["ehrhart", path, "--method", "auto"])
        _, interp = run_json(capsys, ["ehrhart", path, "--method", "interpolate"])
        assert auto["coefficients"] == interp["coefficients"]


def test_cli_ehrhart_hypothesis_errors_name_their_witness(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vertices": [[0, 0], ["1/2", 0], [0, 1]]}))
    face = "face conv{(1/2, 0)} is not affinely integral"
    cases = (
        (["--method", "auto"], f"polytope is not integral: {face}"),
        (["--method", "k-integral"], f"polytope is not integral: {face}"),
        (["--method", "interpolate"], f"polytope is not integral: {face}"),
        (["--method", "fully-integral"], f"polytope is not fully integral: {face}"),
        (["--method", "k-integral", "--k", "2"], f"polytope is not fully integral: {face}"),
        (["--method", "k-integral", "--k", "1"], f"polytope is not 1-integral: {face}"),
        (["--method", "k-integral", "--k", "0"], f"polytope is not integral: {face}"),
    )
    for args, message in cases:
        assert main(["ehrhart", str(path), *args]) == 2
        assert capsys.readouterr() == ("", f"hypothesis violated: {message}\n")


def test_cli_hypothesis_errors_name_one_witness(tmp_path, capsys):
    # Every command that needs P integral names the same face of the same
    # triangle, under the level it asked for.
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vertices": [[0, 0], ["1/2", 0], [0, 1]]}))
    cases = [(["ehrhart", "--method", m], "fully integral" if m == "fully-integral" else "integral")
             for m in EHRHART_METHODS]
    cases += [(["ehrhart", "--method", "k-integral", "--k", "0"], "integral"),
              (["ehrhart", "--method", "k-integral", "--k", "1"], "1-integral"),
              (["ehrhart", "--method", "k-integral", "--k", "2"], "fully integral"),
              (["simplex-identities"], "integral"),
              (["reduce", "--k", "1"], "integral"),
              (["reduce", "--k", "2"], "1-integral")]
    for (command, *args), name in cases:
        assert main([command, str(path), *args]) == 2, args
        assert capsys.readouterr() == ("", f"hypothesis violated: polytope is not {name}: "
                                           "face conv{(1/2, 0)} is not affinely integral\n")
    # The reports record the same text as their witness, under the same names:
    # verify-mainvol --k 1 asks what reduce --k 1 asks, and verify-codim1 on
    # this triangle asks 1-integrality, as reduce --k 2 does.
    for report, gate in ((["verify-mainvol", "--k", "1"], ["reduce", "--k", "1"]),
                         (["verify-codim1"], ["reduce", "--k", "2"])):
        assert main([gate[0], str(path), *gate[1:]]) == 2
        text = capsys.readouterr().err.removeprefix("hypothesis violated: ").removesuffix("\n")
        code, data = run_json(capsys, [report[0], str(path), *report[1:]])
        assert code == 2 and data["hypotheses_hold"] is False
        assert data["witness"] == text
        assert [h["condition"] for h in data["hypotheses"] if not h["holds"]][0] in text
    p1 = tmp_path / "p1.json"
    p1.write_text(json.dumps(P1_DOC))
    code, data = run_json(capsys, ["simplex-identities", str(p1)])
    assert code == 0
    assert data["signed_decomposition"]["hypotheses"] == [
        {"condition": "integral", "holds": True},
        {"condition": "in 3-general position", "holds": True},
    ]


def test_cli_usage_errors_exit_1(docs, capsys):
    cases = (
        ["svol", docs["p1"]],
        ["slices", docs["p1"], "--k", "two"],
        ["no-such-command", docs["p1"]],
        *(["ehrhart", docs["p1"], "--method", m, "--k", "1"]
          for m in EHRHART_METHODS if m != "k-integral"),
    )
    for argv in cases:
        assert main(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and "usage: latticeface" in err, argv
        if argv[0] == "ehrhart":
            assert "usage: latticeface ehrhart" in err, argv
            assert f"--k applies only to --method k-integral, not --method {argv[3]}" in err
    assert main(["--help"]) == 0
    assert "usage: latticeface" in capsys.readouterr().out


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cli_cyclic_polytopes_match_gale_volumes(d, tmp_path, capsys):
    # Cyclic polytopes on seeded integer parameters against Gale's evenness
    # sum, which takes no hull and no triangulation: the volume, the level-1
    # slice sum, and the Ehrhart coefficients, the j-th being the volume of
    # the cyclic polytope one projection down to dimension j (Liu 2005).
    rng = random.Random(200 + d)
    path = tmp_path / "cyclic.json"
    for _ in range(4):
        ts = sorted(rng.sample(range(-5, 10), rng.randint(d + 2, 10)))
        path.write_text(json.dumps({"ambient_dim": d, "vertices": [[t**j for j in range(1, d + 1)] for t in ts]}))
        volumes = [1] + [format_rational(cyclic_volume(ts, j)) for j in range(1, d + 1)]
        assert run_json(capsys, ["volume", str(path)]) == (0, {"command": "volume", "lattice": "lin",
                                                             "volume": volumes[d]}), ts
        assert run_json(capsys, ["svol", str(path), "--k", "1"])[1]["svol"] == volumes[d], ts
        code, data = run_json(capsys, ["ehrhart", str(path)])
        assert code == 0 and data["coefficients"] == volumes, ts


def test_cli_verify_mainvol_counterexample(docs, capsys):
    code, data = run_json(capsys, ["verify-mainvol", docs["square"], "--k", "1"])
    assert code == 2
    assert data["lhs"] == 1 and data["rhs"] == 2 and data["equal"] is False
    code, data = run_json(capsys, ["verify-mainvol", docs["p1"], "--k", "2"])
    assert code == 0
    assert data["lhs"] == 8 and data["rhs"] == 8 and data["equal"] is True


def test_cli_slices_p1_k2(docs, capsys):
    code, data = run_json(capsys, ["slices", docs["p1"], "--k", "2"])
    assert code == 0
    interior = [e for e in data["slices"] if e["position"] == "interior"]
    assert [e["volume"] for e in interior] == [1, 1, 2, 1, 1, "4/5", "3/5", "2/5", "1/5"]
    assert data["volume_sum"] == 8


def test_cli_slices_p1_k1(docs, capsys):
    code, data = run_json(capsys, ["slices", docs["p1"], "--k", "1"])
    assert code == 0
    assert [e["ehrhart"] for e in data["slices"]] == [
        [1], [1, 2, 1], [1, 4, 4], [1, 4, 3], [1],
    ]
    assert data["ehrhart_sum"] == [5, 10, 8]


def test_cli_check_witnesses(docs, capsys):
    code, data = run_json(capsys, ["check", docs["p2"]])
    assert code == 0
    assert data["integrality_level"] == 0
    assert "(2, 1, 5)" in data["integrality_witness"]


def test_cli_svol_and_volume(docs, capsys):
    code, data = run_json(capsys, ["volume", docs["p2"]])
    assert code == 0 and data["volume"] == 10
    code, data = run_json(capsys, ["svol", docs["p2"], "--k", "2"])
    assert code == 0 and data["svol"] == 8


def test_cli_reduce_roundtrip(docs, capsys, tmp_path):
    out = tmp_path / "reduced.json"
    code, data = run_json(capsys, ["reduce", docs["p1"], "--k", "2", "--out", str(out)])
    assert code == 0
    reloaded = load_polytope(str(out))
    assert polytope_from_document(data["polytope"]) == reloaded


def test_cli_simplex_identities(docs, capsys):
    code, data = run_json(capsys, ["simplex-identities", docs["p1"]])
    assert code == 0
    assert data["all_hold"] is True
    assert len(data["vanishing_sums"]) == 5  # (0,0), (0,1), (1,0) x 3 monomials


def test_cli_simplex_identities_rejects_non_simplex(docs, capsys):
    code = main(["simplex-identities", docs["square"]])
    assert code == 1


def test_cli_usage_error_on_missing_file(capsys):
    assert main(["volume", "/nonexistent/path.json"]) == 1


def test_cli_budget_env(docs, capsys, monkeypatch):
    monkeypatch.setenv("LATTICEFACE_CELL_BUDGET", "10")
    assert main(["ehrhart", docs["p1"]]) == 1


def test_cli_budget_env_malformed(docs, capsys, monkeypatch):
    for raw in ("abc", "-5"):
        monkeypatch.setenv("LATTICEFACE_CELL_BUDGET", raw)
        assert main(["ehrhart", docs["p1"]]) == 1
        err = capsys.readouterr().err
        assert err == f"error: LATTICEFACE_CELL_BUDGET must be a nonnegative integer, got {raw!r}\n"


def test_cli_rejects_a_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 200_000
    path.write_text('{"ambient_dim": 1, "vertices": ' + "[" * depth + "]" * depth + "}")
    with pytest.raises(ValueError, match="nested too deeply"):
        load_polytope(str(path))
    assert main(["volume", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: document is nested too deeply\n"


def test_cli_rejects_a_repeated_key(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [1]], "vertices": [[0], [2]]}')
    assert main(["volume", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate key 'vertices'\n"
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [1]], "extra": {"a": 1, "a": 2}}')
    assert main(["volume", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate key 'a'\n"


def test_cli_repeats_at_most_a_prefix_of_a_rejected_value(tmp_path, capsys):
    key = "k" * 200_000
    for name, text in (
        ("digits", json.dumps({"ambient_dim": 1, "vertices": [["9" * 200_000]]})),
        ("key", f'{{"ambient_dim": 1, "vertices": [[0]], "{key}": 1, "{key}": 2}}'),
        ("list", json.dumps({"ambient_dim": 1, "vertices": [[[0] * 50_000]]})),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main(["volume", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ") and err.count("\n") == 1, name
        assert len(err.encode()) < 200, (name, err)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_cli_names_the_document_of_an_overlong_integer(tmp_path, capsys):
    path = tmp_path / "long.json"
    digits = sys.get_int_max_str_digits() + 1
    path.write_text('{"ambient_dim": 1, "vertices": [[0], [' + "9" * digits + "]]}")
    assert main(["volume", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and f"{digits} digits" in err


def test_cli_slices_over_the_cell_budget(docs, capsys, monkeypatch):
    # Ten cells cover the five lattice points of P1's projection to the first
    # coordinate, which svol walks, but not the dilates of a slice.
    monkeypatch.setenv("LATTICEFACE_CELL_BUDGET", "10")
    assert main(["svol", docs["p1"], "--k", "1"]) == 0
    capsys.readouterr()
    assert main(["slices", docs["p1"], "--k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lattice enumeration exceeded the cell budget of 10\n"


def test_cli_text_format(docs, capsys):
    code = main(["volume", docs["p1"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "volume: 8" in out
    # A nested dict prints as dotted keys and booleans as true/false.  P1 is
    # only 1-integral; lhs 23 is L_P1(1) = 8 + 10 + 4 + 1, and 17 is Pick's
    # count 12 + 8/2 + 1 of its projection, the triangle (0,0), (4,0), (3,6).
    assert main(["verify-codim1", docs["p1"]]) == 2
    assert capsys.readouterr().out == (
        "command: verify-codim1\n"
        "identity: codim1-count\n"
        "hypotheses[0]: condition=2-integral holds=false\n"
        "hypotheses_hold: false\n"
        "witness: polytope is not 2-integral: face conv{(4, 0, 0), (3, 6, 0), (2, 2, 2)} "
        "is not affinely integral\n"
        "lhs: 23\n"
        "rhs: 25\n"
        "equal: false\n"
        "details.projection_count: 17\n"
        "details.volume: 8\n"
    )


def test_cli_prints_the_readme_examples(docs, capsys, monkeypatch):
    # The README's example block, byte for byte, run on its own documents:
    # P1, the polytope of its file-format example, and the unit square.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert json.loads(re.search(r"^```json\n(.*?)^```", readme, re.S | re.M)[1]) == P1_DOC
    (block,) = re.findall(r"^```\n(\$ latticeface .*?)^```", readme, re.S | re.M)
    monkeypatch.chdir(Path(docs["p1"]).parent)
    codes = []
    for example in re.split(r"^\$ ", block, flags=re.M)[1:]:
        command, expected = example.split("\n", 1)
        command, echo, _ = command.partition('; echo "exit $?"')
        codes.append(main(command.split()[1:]))
        out = capsys.readouterr().out + (f"exit {codes[-1]}\n" if echo else "")
        assert out == expected.rstrip("\n") + "\n", command
    assert codes == [0, 2]


def test_cli_commands_match_the_readme_table(capsys):
    # Every subcommand of the parser is a row of the README's command table and
    # every row is a subcommand; its usage there parses to its own handler.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    usages = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [u.split()[0] for u in usages] == list(sub.choices)
    for usage in usages:
        required = re.sub(r"\[[^]]*\]", "", usage).replace("FILE", "p.json").replace("K", "1")
        name, *rest = required.split()
        args = parser.parse_args([name, *rest])
        assert args.command == name
        assert args.handler.__name__ == "_cmd_" + name.replace("-", "_")
    assert capsys.readouterr() == ("", "")


def test_cli_rejects_a_hull_with_no_lattice_point(tmp_path, capsys):
    # aff(P) is the line x = 1/2, which carries no lattice point.
    path = tmp_path / "latticeless.json"
    path.write_text(json.dumps({"ambient_dim": 2, "vertices": [["1/2", 0], ["1/2", 1]]}))
    for command in ("svol", "slices"):
        assert main([command, str(path), "--k", "1"]) == 2, command
        assert capsys.readouterr() == (
            "", "hypothesis violated: affine hull of P contains no lattice point\n"
        ), command


def test_save_polytope_roundtrip(tmp_path):
    poly = Polytope(2, [(0, 0), (2, 0), (0, 2)])
    path = tmp_path / "tri.json"
    save_polytope(poly, str(path))
    assert load_polytope(str(path)) == poly


def test_cli_slices_agree_with_svol_off_centre(tmp_path, capsys):
    # A triangle on the plane z = x + y + 1, translated: lower-dimensional and
    # with no lattice point of its affine hull at the origin.
    verts = [[5 + x, -7 + y, 5 + x - 7 + y + 1] for x, y in ((0, 0), (4, 0), (3, 6))]
    path = tmp_path / "tilted.json"
    path.write_text(json.dumps({"ambient_dim": 3, "vertices": verts}))
    poly = load_polytope(str(path))
    for k in (1, 2):
        code, slices = run_json(capsys, ["slices", str(path), "--k", str(k)])
        assert code == 0
        code, svol = run_json(capsys, ["svol", str(path), "--k", str(k)])
        assert code == 0
        assert slices["volume_sum"] == svol["svol"]
        # The lattice of lin(P) projects onto Z^k, so every lattice point of the
        # projection is listed, in the frame of the document.
        points = [tuple(e["point"]) for e in slices["slices"]]
        assert points == poly.project(k).lattice_points()


def test_cli_reduce_names_the_witness_in_the_documents_coordinates(tmp_path, capsys):
    # An embedded triangle off the origin whose edge along x_2 is not
    # 1-general: reduce certifies the document's own P, so it names the face
    # that verify-mainvol names, not a translate of it.
    path = tmp_path / "raised.json"
    path.write_text(json.dumps({"ambient_dim": 3, "vertices": [[3, 5, 7], [3, 7, 7], [4, 5, 7]]}))
    assert main(["reduce", str(path), "--k", "1"]) == 2
    err = capsys.readouterr().err
    code, report = run_json(capsys, ["verify-mainvol", str(path), "--k", "1"])
    assert code == 2
    face = "face conv{(3, 5, 7), (3, 7, 7)}"
    assert face in err and face in report["witness"]


def test_document_coordinate_grammar(tmp_path, capsys):
    doc = {"ambient_dim": 1, "vertices": [["1/2"], ["-3/4"], ["7"], ["+2"]]}
    assert len(polytope_from_document(doc).vertices) == 2
    for bad in ("1/0", "1e3", "1.5", " 1/2", "1/-2", "1_000", "0x10", "١", ""):
        with pytest.raises(ValueError):
            polytope_from_document({"ambient_dim": 1, "vertices": [[bad]]})
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ambient_dim": 1, "vertices": [["1e10000000"], [0]]}))
    start = time.perf_counter()
    with pytest.raises(ValueError):
        load_polytope(str(path))
    assert main(["volume", str(path)]) == 1
    assert time.perf_counter() - start < 1


def test_document_rejects_an_empty_vertex_list(tmp_path, capsys):
    for ambient_dim in (3, 10**7):
        doc = {"ambient_dim": ambient_dim, "vertices": []}
        with pytest.raises(ValueError, match="non-empty"):
            polytope_from_document(doc)
        path = tmp_path / f"empty{ambient_dim}.json"
        path.write_text(json.dumps(doc))
        assert main(["svol", str(path), "--k", "1"]) == 1
        assert "non-empty" in capsys.readouterr().err


def test_cli_simplex_identities_computes_one_ratio_table(tmp_path, capsys, monkeypatch):
    from latticeface import simplex_decomposition

    calls = []
    original = simplex_decomposition.integer_det

    def counted(*args):
        calls.append(args)
        return original(*args)

    # The integer minor that every ratio and det(P) go through.
    monkeypatch.setattr(simplex_decomposition, "integer_det", counted)
    doc = {"ambient_dim": 4, "vertices": [[t, t**2, t**3, t**4] for t in (-2, -1, 1, 2, 3)]}
    path = tmp_path / "moment4.json"
    path.write_text(json.dumps(doc))
    code, data = run_json(capsys, ["simplex-identities", str(path)])
    assert code == 0 and data["all_hold"] is True
    assert len(data["vanishing_sums"]) == 15
    # Two minors per nonempty subset of the first 4 vertices, and det(P) once;
    # a table over the 4! permutations takes 2 * 4 * 24 = 192 minors.
    assert len(calls) <= 2 * (2**4 - 1) + 1


def test_cli_simplex_identities_error_order(tmp_path, capsys):
    cases = (
        ({"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}, 1),  # not a simplex
        ({"ambient_dim": 2, "vertices": [[0, 0], [1, 0], ["1/2", 3]]}, 2),  # not integral
        ({"ambient_dim": 2, "vertices": [[0, 0], [0, 1], [1, 1]]}, 2),  # not fully general
    )
    for i, (doc, expected) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(json.dumps(doc))
        assert main(["simplex-identities", str(path)]) == expected
        assert capsys.readouterr().out == ""
