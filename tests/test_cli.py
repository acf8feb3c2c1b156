"""Command-line surface: outputs, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from positroid_lab import obs
from positroid_lab.amplituhedron import make_positive_Z
from positroid_lab.cells import cell_dim_of_perm, graph_of_perm
from positroid_lab.cli import main
from positroid_lab.perms import enumerate_decorated
from positroid_lab.trop import HeightVector

import graphs
from test_plabic import NON_REDUCED_CELLS, _crossed


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cell_from_perm(capsys):
    code, out = run(capsys, "cell", "--perm", "(3,1,4,2)", "--sample", "3",
                    "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 3
    assert [1, 2] in data["positroid"]
    assert len(data["samples"]) == 3
    for rec in data["samples"]:
        assert rec["plucker"]["coords"]["3,4"] == "0/1"


def test_cell_loop_only(capsys):
    code, out = run(capsys, "cell", "--perm", "(1_)")
    assert code == 0
    assert json.loads(out)["dimension"] == 0


def test_cell_rerun_bit_identical(capsys):
    _, out1 = run(capsys, "cell", "--perm", "(3,1,4,2)", "--sample", "2", "--seed", "9")
    _, out2 = run(capsys, "cell", "--perm", "(3,1,4,2)", "--sample", "2", "--seed", "9")
    assert out1 == out2


def test_cell_graph_matchings(capsys, tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(graphs.g1().to_json()))
    code, out = run(capsys, "cell", "--graph", str(path), "--matchings")
    assert code == 0
    data = json.loads(out)
    assert data["trip_permutation"] == "(3,1,4,2)"
    assert len(data["matchings"]) == 5


def test_cell_graph_matchings_enumerates_the_matchings_once(capsys, monkeypatch):
    """One enumeration serves the matching positroid and the printed list,
    under every module name that holds ``plabic.matchings``."""
    import sys

    from positroid_lab import plabic

    calls, original = [], plabic.matchings

    def counting(H):
        calls.append(H)
        return original(H)

    for name, mod in list(sys.modules.items()):
        if name.startswith("positroid_lab") and getattr(mod, "matchings", None) is original:
            monkeypatch.setattr(mod, "matchings", counting)
    code, out = run(capsys, "cell", "--graph", str(graphs.DEMOS / "g1.json"), "--matchings")
    assert code == 0 and len(json.loads(out)["matchings"]) == 5
    assert len(calls) == 1


@pytest.mark.parametrize("kept", ["edges", "neighbors"])
def test_graph_file_without_rotations_exits_2(capsys, tmp_path, kept):
    """Dart ``rotations`` are the one embedding a graph file gives: neither
    the edge list alone nor the neighbour names ``to_json`` writes stand in
    for them."""
    data = graphs.g1().to_json()
    del data["rotations"]
    if kept == "edges":
        del data["neighbors"]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert main(["cell", "--graph", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: missing key 'rotations' in {path}\n"


def _graph_file(tmp_path, G) -> str:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(G.to_json()))
    return str(path)


@pytest.mark.parametrize("graph, trip, cell, dim", NON_REDUCED_CELLS,
                         ids=["bridged", "round_trip", "digon"])
def test_cell_graph_prints_the_cell_of_a_non_reduced_graph(capsys, tmp_path, graph, trip,
                                                            cell, dim):
    code, out = run(capsys, "cell", "--graph", _graph_file(tmp_path, graph()))
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["trip_permutation", "perm", "type", "dimension", "positroid", "seed"]
    assert (data["trip_permutation"], data["perm"], data["dimension"]) == (trip, cell, dim)


def test_cell_graph_of_every_bridge_graph_prints_its_permutation(capsys, tmp_path):
    # n <= 4 here; test_plabic checks perm_of_graph itself up to n = 6
    for n in range(5):
        for pi in enumerate_decorated(n):
            code, out = run(capsys, "cell", "--graph", _graph_file(tmp_path, graph_of_perm(pi)))
            data = json.loads(out)
            assert code == 0 and data["perm"] == data["trip_permutation"] == repr(pi)
            assert data["dimension"] == cell_dim_of_perm(pi)


@pytest.mark.parametrize("graph", [graphs.g1, NON_REDUCED_CELLS[0][0]], ids=["g1", "bridged"])
def test_cell_graph_samples_its_cell(capsys, tmp_path, graph):
    code, out = run(capsys, "cell", "--graph", _graph_file(tmp_path, graph()), "--sample", "2",
                    "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 3 and len(data["samples"]) == 2
    for rec in data["samples"]:
        support = sorted([int(i) for i in key.split(",")]
                         for key, v in rec["plucker"]["coords"].items() if v != "0/1")
        assert support == data["positroid"]


def test_cell_graph_whose_matching_matroid_is_no_positroid_exits_2(capsys, tmp_path):
    assert main(["cell", "--graph", _graph_file(tmp_path, _crossed())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: the matching matroid of the graph is not a positroid\n"


def test_cell_matchings_need_a_graph(capsys):
    assert main(["cell", "--perm", "(3,1,4,2)", "--matchings"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("input error: --matchings lists the matchings of a --graph, "
                            "not a --perm\n")


def test_cell_graph_with_a_vertex_named_like_a_bipartize_vertex(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "n": 2,
        "vertices": [{"id": "x0", "color": "white"}, {"id": "y", "color": "white"}],
        "edges": [["b1", "x0"], ["x0", "y"], ["y", "b2"]],
        "rotations": {"b1": [[0, 0]], "x0": [[0, 1], [1, 0]], "y": [[1, 1], [2, 0]],
                      "b2": [[2, 1]]},
    }))
    code, out = run(capsys, "cell", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["positroid"] == [[1], [2]]


def test_cell_graph_dot_and_tikz(capsys, tmp_path):
    path = tmp_path / "g1.json"
    path.write_text(json.dumps(graphs.g1().to_json()))
    code, out = run(capsys, "cell", "--graph", str(path), "--format", "dot")
    assert code == 0 and out.startswith("graph")
    code, out = run(capsys, "cell", "--graph", str(path), "--format", "tikz")
    assert code == 0 and "tikzpicture" in out


def test_tilings_hypersimplex(capsys):
    code, out = run(capsys, "tilings", "--space", "hypersimplex", "--k", "1",
                    "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2


def test_tilings_amplituhedron_with_audit(capsys):
    code, out = run(capsys, "tilings", "--space", "amplituhedron", "--k", "1",
                    "--n", "4", "--z", "vandermonde:0,1,2,3")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2 and all(data["audited"]) and "seed" not in data


def test_tilings_verify_good_and_bad(capsys, tmp_path):
    good = {"space": "hypersimplex", "k": 1, "n": 4,
            "tiles": [{"perm": "(3,1,4,2)"}, {"perm": "(2,4,1,3)"}]}
    bad = {"space": "hypersimplex", "k": 1, "n": 4,
           "tiles": [{"perm": "(3,1,4,2)"}]}
    p1 = tmp_path / "good.json"
    p1.write_text(json.dumps(good))
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad))
    code, out = run(capsys, "tilings", "--verify", str(p1))
    assert code == 0 and json.loads(out)["valid"]
    code, out = run(capsys, "tilings", "--verify", str(p2))
    assert code == 1
    assert json.loads(out)["violations"]


def test_tilings_t_dual_conversion(capsys, tmp_path):
    data = {"space": "hypersimplex", "k": 1, "n": 4,
            "tiles": [{"perm": "(3,1,4,2)"}, {"perm": "(2,4,1,3)"}]}
    p = tmp_path / "t.json"
    p.write_text(json.dumps(data))
    code, out = run(capsys, "tilings", "--t-dual", str(p))
    assert code == 0
    got = json.loads(out)
    assert got["space"] == "amplituhedron"
    assert set(got["tiles"]) == {"(2,3,1,4_)", "(3,2_,4,1)"}


def test_trop_positive_and_violation(capsys, tmp_path):
    p = tmp_path / "h.json"
    p.write_text(json.dumps(HeightVector.make(2, 4, {(1, 2): 1}).to_json()))
    code, out = run(capsys, "trop", "--heights", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["positive_tropical"] and data["finest"]
    assert len(data["cells"]) == 2
    p2 = tmp_path / "hbad.json"
    p2.write_text(json.dumps(HeightVector.make(2, 4, {(1, 3): 1, (2, 4): 1}).to_json()))
    code, out = run(capsys, "trop", "--heights", str(p2))
    assert code == 1
    assert json.loads(out)["violation"]["quad"] == [1, 2, 3, 4]


@pytest.mark.parametrize("k, n", [(0, 3), (1, 1), (0, 0), (3, 3)])
def test_trop_on_a_point_hypersimplex(capsys, tmp_path, k, n):
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"k": k, "n": n, "heights": {}}))
    code, out = run(capsys, "trop", "--heights", str(p))
    assert code == 0
    data = json.loads(out)
    assert data["finest"] is True and len(data["cells"]) == 1


def test_amp_sample(capsys):
    code, out = run(capsys, "amp", "sample", "--n", "4", "--k", "1", "--m", "2",
                    "--cell", "(2,3,1,4_)", "--count", "2",
                    "--z", "vandermonde:0,1,2,3", "--seed", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["samples"]) == 2
    for rec in data["samples"]:
        assert "twistors" in rec and "sign_stratum" in rec


@pytest.mark.parametrize("n, k, m, cell, message", [
    ("5", "1", "3", "(3,4,5,1,2)", "cell (3,4,5,1,2) has type (2,5), expected (1,5)"),
    ("4", "2", "2", "(2,3,4,1)", "cell (2,3,4,1) has type (1,4), expected (2,4)"),
    ("3", "1", "1", "(2,3,4,1)", "cell (2,3,4,1) has type (1,4), expected (1,3)"),
], ids=["k", "k-and-m", "n"])
def test_amp_sample_rejects_a_cell_of_the_wrong_type(capsys, n, k, m, cell, message):
    code = main(["amp", "sample", "--n", n, "--k", k, "--m", m, "--cell", cell,
                 "--count", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_amp_verify_tiling(capsys, tmp_path):
    data = {"space": "amplituhedron", "k": 1, "n": 4,
            "tiles": [{"black_polygons": [[1, 2, 3]]},
                      {"black_polygons": [[1, 3, 4]]}]}
    p = tmp_path / "amp.json"
    p.write_text(json.dumps(data))
    code, out = run(capsys, "amp", "verify-tiling", "--file", str(p),
                    "--z", "vandermonde:0,1,2,3")
    assert code == 0 and json.loads(out)["valid"]


AMP_LABELS = {"space": "amplituhedron", "k": 1, "n": 4, "tiles": ["(1_,3,4,2)", "(2,4,3_,1)"]}


def test_amp_verify_tiling_reads_amplituhedron_labels(capsys, tmp_path):
    import hashlib

    p = tmp_path / "amp.json"
    p.write_text(json.dumps(AMP_LABELS))
    code, out = run(capsys, "amp", "verify-tiling", "--file", str(p),
                    "--z", "vandermonde:0,1,2,3")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] and data["sample_audit_ok"] and data["violations"] == []
    assert data["hypersimplex"]["tiles"] == ["(3,4,2,1)", "(4,3,1,2)"]
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "516412df32ee9eb7b5ac3afada4b1f5affefebc9dd9608b033abd4442a1df177")


@pytest.mark.parametrize("tiles, message", [
    (["(2,3,4,1)"], "tile (2,3,4,1) does not label a tile"),
    (["(1,2,3,4)"], "tile (1_,2_,3_,4_) has type (0, 4), expected (1,4) or (2,4)"),
], ids=["not-a-tile", "wrong-type"])
def test_amp_verify_tiling_refuses_a_label_of_no_tile(capsys, tmp_path, tiles, message):
    p = tmp_path / "amp.json"
    p.write_text(json.dumps({**AMP_LABELS, "tiles": tiles}))
    code = main(["amp", "verify-tiling", "--file", str(p), "--z", "vandermonde:0,1,2,3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"input error: {message}\n"


def test_amp_sample_at_m1_lands_every_sample_in_the_amplituhedron(capsys):
    import hashlib

    code, out = run(capsys, "amp", "sample", "--m", "1", "--n", "5", "--k", "2",
                    "--cell", "(3,4,5,1,2)")
    assert code == 0
    samples = json.loads(out)["samples"]
    assert len(samples) == 10 and all(rec["m1_membership"] is True for rec in samples)
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "88cbfa21224746aed2692612d44168cc4d565824ab76f670a9dd972b747126ff")


def test_input_errors_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "cell", "--perm", "(banana)")
    assert code == 2
    code, _ = run(capsys, "trop", "--heights", str(tmp_path / "missing.json"))
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run(capsys, "trop", "--heights", str(broken))
    assert code == 2


def test_trop_zero_denominator_exit_2(capsys, tmp_path):
    data = HeightVector.make(2, 4, {(1, 2): 1}).to_json()
    data["heights"]["1,2"] = "1/0"
    p = tmp_path / "h.json"
    p.write_text(json.dumps(data))
    assert main(["trop", "--heights", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


def test_trop_list_heights_file_exit_2(capsys, tmp_path):
    p = tmp_path / "h.json"
    p.write_text(json.dumps([1, 2, 3]))
    assert main(["trop", "--heights", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("data", [
    {"k": "x", "n": 4, "heights": {"1,2": "1/1"}},
    {"k": 2, "n": 4, "heights": {"1,2": 5}},
    {"k": 2, "n": 4, "heights": [1, 2]},
    {"k": 2, "n": 4, "heights": {"1,9": "1/1"}},
    {"k": 2, "n": 4, "heights": {"1,2": "1/1", "2,1": "0/1"}},
])
def test_trop_malformed_heights_exit_2(capsys, tmp_path, data):
    p = tmp_path / "h.json"
    p.write_text(json.dumps(data))
    assert main(["trop", "--heights", str(p)]) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("argv", [
    ["tilings", "--verify", "FILE"],
    ["amp", "verify-tiling", "--file", "FILE", "--z", "vandermonde:0,1,2,3"],
])
def test_missing_key_names_key_and_file(capsys, tmp_path, argv):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"n": 4}))
    assert main([str(p) if a == "FILE" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"input error: missing key 'tiles' in {p}\n"


@pytest.mark.parametrize("argv", [
    ["tilings", "--verify", "FILE"],
    ["tilings", "--t-dual", "FILE"],
    ["amp", "verify-tiling", "--file", "FILE", "--z", "vandermonde:0,1,2,3"],
], ids=["verify", "t-dual", "amp-verify-tiling"])
def test_a_permutation_record_without_images_names_the_key(capsys, tmp_path, argv):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"n": 4, "k": 1, "tiles": [{"perm": {"loops": []}}]}))
    assert main([str(p) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: missing key 'images' in a permutation record\n"


def test_black_polygon_tiles_match_the_catalan_scan():
    from positroid_lab.cli import _parse_tile
    from positroid_lab.triangulations import (
        BicoloredTriangulation,
        enumerate_subdivisions,
        fan_triangulation,
    )

    from oracles import all_triangulations

    checked = 0
    for n in range(3, 9):
        everything = all_triangulations(n)
        for k in range(n - 1):
            for S in enumerate_subdivisions(n, k):
                blacks = frozenset().union(*map(fan_triangulation, S.black_polygons))
                tris = next(T for T in everything if blacks <= T)
                rec = {"black_polygons": [list(p) for p in S.black_polygons]}
                assert _parse_tile(rec, n) == BicoloredTriangulation(n, blacks,
                                                                     tris - blacks)
                checked += 1
    assert checked == 2320


def test_black_polygon_tile_lists_no_triangulations(capsys, tmp_path):
    from positroid_lab import triangulations

    # the Catalan scan of every triangulation lives only in the test oracles
    assert not hasattr(triangulations, "all_triangulations")
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"space": "hypersimplex", "n": 8,
                             "tiles": [{"black_polygons": [[1, 4, 7]]}]}))
    code, out = run(capsys, "tilings", "--t-dual", str(p))
    assert code == 0 and len(json.loads(out)["tiles"]) == 1
    crossing = tmp_path / "x.json"
    crossing.write_text(json.dumps({"space": "hypersimplex", "n": 6,
                                    "tiles": [{"black_polygons": [[1, 3, 5], [2, 4, 6]]}]}))
    assert main(["tilings", "--t-dual", str(crossing)]) == 2
    assert capsys.readouterr().err.startswith("input error: black polygons")


@pytest.mark.parametrize("argv", [
    ["cell", "--perm", "(3,1,4,2)", "--sample", "-1"],
    ["amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,1,4_)", "--count", "-1"],
    ["cell", "--graph", "demos/g1.json", "--sample", "-1"],
    ["amp", "sample", "--n", "5", "--k", "2", "--m", "-1", "--cell", "(3,4,5,1,2)"],
])
def test_negative_counts_exit_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("argv, message", [
    (["tilings", "--space", "amplituhedron", "--k", "1", "--n", "4", "--z", "moment:0,1,2,3"],
     "unrecognized z spec 'moment:0,1,2,3' (use vandermonde:<nodes> or file:<path>)"),
    (["amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,4,1)", "--z", "0,1,2,3"],
     "unrecognized z spec '0,1,2,3' (use vandermonde:<nodes> or file:<path>)"),
    (["tilings", "--k", "1"], "tilings needs --k and --n (or --verify / --t-dual)"),
    (["tilings", "--space", "amplituhedron", "--n", "4"],
     "tilings needs --k and --n (or --verify / --t-dual)"),
])
def test_a_request_the_cli_cannot_read_names_what_it_needs(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["tilings", "--space", "amplituhedron", "--k", "1", "--n", "4",
     "--z", "vandermonde:0,1,2,3", "--samples", "5"],
    ["amp", "verify-tiling", "--file", "demos/tiling_square.json",
     "--z", "vandermonde:0,1,2,3", "--samples", "5"],
])
def test_the_audits_take_no_sample_count(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "positroid_lab.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --samples 5" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_reader_closing_early_meets_exit_141_and_no_traceback():
    import os
    import subprocess
    import sys

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # 3.4 MB of JSON: far more than a pipe holds, so the writer meets the closed end
    argv = ["tilings", "--space", "hypersimplex", "--k", "2", "--n", "7", "--stats"]
    proc = subprocess.Popen([sys.executable, "-m", "positroid_lab.cli", *argv], cwd=root,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(64).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err
    # --stats still writes its one object to stderr
    assert json.loads(err) == {"seed": None, "counters": {}}


def test_amp_verify_tiling_does_not_read_the_seed(capsys):
    outs = [run(capsys, "amp", "verify-tiling", "--file", "demos/tiling_square.json",
                "--z", "vandermonde:0,1,3,4", "--seed", seed) for seed in ("5", "6")]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_round_trip_emitted_json(capsys):
    _, out = run(capsys, "cell", "--perm", "(3,1,4,2)", "--sample", "1", "--seed", "1")
    data = json.loads(out)
    from positroid_lab.grassmann import PluckerVector

    P = PluckerVector.from_json(data["samples"][0]["plucker"])
    assert P.to_json() == data["samples"][0]["plucker"]


@pytest.mark.parametrize("seed, digest", [
    ("1", "c6d1d431da4c17b74ca8fa9ca5540bf9bc2c00524b4bc8d27c5b5dc992b35e36"),
    ("4", "c6d1d431da4c17b74ca8fa9ca5540bf9bc2c00524b4bc8d27c5b5dc992b35e36"),
])
def test_amplituhedron_tilings_draw_audit_points_once(capsys, monkeypatch, seed, digest):
    import hashlib

    from positroid_lab import amplituhedron
    from positroid_lab.hypersimplex import tile_catalog
    from positroid_lab.perms import t_dual

    calls = []
    original = amplituhedron.matrix_realization

    def counting(pi, params):
        calls.append(pi)
        return original(pi, params)

    monkeypatch.setattr(amplituhedron, "matrix_realization", counting)
    code, out = run(capsys, "tilings", "--space", "amplituhedron", "--k", "1", "--n", "6",
                    "--z", "vandermonde:0,1,2,3,4,5", "--seed", seed)
    assert code == 0
    assert len(json.loads(out)["audited"]) == 14
    # one witness per tile of type (1,6), for all 14 tilings
    assert calls == [t_dual(pi) for pi in tile_catalog(2, 6)]
    # stdout of the version that drew seeded audit points, less its "seed"
    # key; no seed changes it
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _catalog_triangulations(k: int, n: int) -> dict:
    """Each tile's triangulation under its amplituhedron label."""
    from positroid_lab.hypersimplex import tile_catalog
    from positroid_lab.perms import t_dual

    return {repr(t_dual(pi)): rec.triangulation for pi, rec in tile_catalog(k + 1, n).items()}


@pytest.mark.parametrize("k, n", [(1, 5), (1, 6), (2, 6)])
def test_amplituhedron_listing_audits_as_the_full_verifier(capsys, k, n):
    from fractions import Fraction

    from positroid_lab.amplituhedron import verify_amp_tiling_m2

    nodes = [f"{2 * i + 1}/2" for i in range(n)]
    code, out = run(capsys, "tilings", "--space", "amplituhedron", "--k", str(k), "--n", str(n),
                    "--z", "vandermonde:" + ",".join(nodes))
    listed = json.loads(out)
    Z = make_positive_Z(n, k + 2, [Fraction(t) for t in nodes])
    tris = _catalog_triangulations(k, n)
    full = [verify_amp_tiling_m2([tris[label] for label in tiling], Z)["valid"]
            for tiling in listed["tilings"]]
    assert code == 0 and listed["audited"] == full and len(full) == listed["count"]


def test_amplituhedron_listing_reports_a_failed_audit(capsys, monkeypatch):
    from positroid_lab import amplituhedron

    label, T = next(iter(_catalog_triangulations(1, 5).items()))
    original = amplituhedron.tile_membership_m2

    def on_the_boundary(Y, Z, tile, strict=False):
        # T holds no witness strictly, not even its own
        got = original(Y, Z, tile, strict)
        return "boundary" if tile == T and got is True else got

    monkeypatch.setattr(amplituhedron, "tile_membership_m2", on_the_boundary)
    code, out = run(capsys, "tilings", "--space", "amplituhedron", "--k", "1", "--n", "5",
                    "--z", "vandermonde:0,1,2,3,4")
    listed = json.loads(out)
    assert code == 1
    assert listed["audited"] == [label not in tiling for tiling in listed["tilings"]]
    assert True in listed["audited"] and False in listed["audited"]


@pytest.mark.parametrize("argv, digest", [
    (["cell", "--perm", "(5,6,7,8,1,2,3,4)", "--sample", "3", "--seed", "0"],
     "7ae772c57f116be32feea1f177f02b117776525f206af9d52fe97e1ec8dfd179"),
    (["amp", "sample", "--n", "7", "--k", "2", "--m", "2", "--cell", "(3,4,5,6,7,1,2)",
      "--count", "2", "--z", "vandermonde:0,1,2,3,4,6,9", "--seed", "0"],
     "92a57c153fa73e9e25c5b312b6e9123fa786623f81f87bdbb21cb7d8ead19bda"),
])
def test_sampled_realizations_are_pinned(capsys, argv, digest):
    import hashlib

    code, out = run(capsys, *argv)
    assert code == 0
    # stdout of the version that placed each coloop by twisted rotations
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["tilings", "--space", "hypersimplex", "--k", "2", "--n", "7"],
     "d4a967a82480f058ce58d6c5ff32f4c76e5204261d8fb488fb55203e0d972cc6"),
    (["tilings", "--space", "amplituhedron", "--k", "2", "--n", "6"],
     "e5556aa7189f9a86c4685b48016de8243ae8036ddcb43b4ba010379050365dd3"),
    (["tilings", "--space", "amplituhedron", "--k", "2", "--n", "6",
      "--z", "vandermonde:0,1,2,3,4,5"],
     "90156ef3a5d2051b121abd8225ea307145b87a46dacef6406611361c3e3191a7"),
    (["tilings", "--space", "hypersimplex", "--k", "2", "--n", "6", "--format", "text"],
     "2163ae47b8d76e1936f06e125c7709d3defafb3282dc52ec748873b3e963a361"),
])
def test_listed_tilings_are_pinned(capsys, argv, digest):
    import hashlib

    code, out = run(capsys, *argv)
    assert code == 0
    # stdout of the version that built a Tiling per tile set and labelled
    # its tiles by hashing their permutations, less the "seed" key that
    # amplituhedron tilings printed then
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (["tilings", "--t-dual", "FILE"],
     "4ee84ae756739cbe72f0618ebd5d294166faca30c96789397070657cd4f042a5"),
    (["tilings", "--verify", "FILE"],
     "899e9e19371aa320d1a110cd1eb721dc259a94a6d68b620787953abed5d54524"),
    (["amp", "verify-tiling", "--file", "FILE", "--z", "vandermonde:0,1,2,3,4,5,6"],
     "13caacdafce464836d6ff6cf93dc302284b37f243e4ad03e6378249cc77259f2"),
])
def test_black_polygon_tilings_are_pinned(capsys, tmp_path, argv, digest):
    import hashlib

    from positroid_lab.hypersimplex import enumerate_tilings

    p = tmp_path / "tiling.json"
    p.write_text(json.dumps({"space": "hypersimplex", "k": 2, "n": 7, "tiles": [
        {"black_polygons": rec.to_json()["black_polygons"]}
        for rec in enumerate_tilings(3, 7)[0].tiles]}))
    code, out = run(capsys, *[str(p) if a == "FILE" else a for a in argv])
    assert code == 0
    # stdout of the version that labelled each tile by the trips of its
    # dual plabic tree, less the "hit_counts" key of the sampled audit
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("space, extra", [("hypersimplex", []),
                                          ("amplituhedron", ["--z", "vandermonde:0,1,2,3,4,5"])])
def test_tilings_above_the_cap_print_their_count_alone(capsys, monkeypatch, space, extra):
    from positroid_lab import cli

    argv = ["tilings", "--space", space, "--k", "1", "--n", "6", *extra]
    monkeypatch.setattr(cli, "TILINGS_LISTED_UP_TO", 14)
    code, out = run(capsys, *argv)
    listed = json.loads(out)
    assert code == 0 and listed["count"] == len(listed["tilings"]) == 14
    assert ("audited" in listed) == (space == "amplituhedron")
    monkeypatch.setattr(cli, "TILINGS_LISTED_UP_TO", 13)
    code, out = run(capsys, *argv)
    counted = json.loads(out)
    assert code == 0 and counted["count"] == 14
    assert "tilings" not in counted and "audited" not in counted
    assert counted == {key: v for key, v in listed.items() if key not in ("tilings", "audited")}


def test_tilings_of_rank_three_on_eight_are_counted(capsys):
    code, out = run(capsys, "tilings", "--k", "2", "--n", "8")
    assert code == 0
    assert json.loads(out) == {"space": "hypersimplex", "k_plus_1": 3, "n": 8,
                               "count": 6443460}


def test_cell_samples_take_their_minors_once(capsys, monkeypatch):
    """One table of minors per sample serves both its certificate and its
    Plücker vector."""
    import sys

    from positroid_lab import exact, grassmann

    calls, tables = [], []
    original, kernel = grassmann.maximal_minors, exact.integer_minors

    def counting(C):
        calls.append((C.rows, C.cols))
        return original(C)

    def counting_kernel(a, n):
        tables.append((len(a), n))
        return kernel(a, n)

    # every Pluecker vector is taken through this one name
    monkeypatch.setattr(grassmann, "maximal_minors", counting)
    for name, mod in list(sys.modules.items()):
        if name.startswith("positroid_lab") and getattr(mod, "integer_minors", None) is kernel:
            monkeypatch.setattr(mod, "integer_minors", counting_kernel)
    code, out = run(capsys, "cell", "--perm", "(5,6,7,8,1,2,3,4)", "--sample", "3")
    assert code == 0 and len(json.loads(out)["samples"]) == 3
    assert calls == [(4, 8)] * 3
    assert tables == [(4, 8)] * 3


@pytest.mark.parametrize("name, data, argv", [
    ("tiles not a list", {"space": "hypersimplex", "k": 1, "n": 4, "tiles": 5},
     ["tilings", "--verify", "FILE"]),
    ("n a string", {"space": "hypersimplex", "k": 1, "n": "4",
                    "tiles": [{"perm": "(3,1,4,2)"}, {"perm": "(2,4,1,3)"}]},
     ["tilings", "--verify", "FILE"]),
    ("perm record a number", {"space": "hypersimplex", "k": 1, "n": 4,
                              "tiles": [{"perm": 5}, {"perm": "(2,4,1,3)"}]},
     ["tilings", "--verify", "FILE"]),
    ("vertices not a list", dict(graphs.g1().to_json(), vertices=5),
     ["cell", "--graph", "FILE"]),
    ("height keys not 2-subsets of [4]",
     {"k": 2, "n": 4, "heights": {"9,9": "1", "1,2,3": "4"}},
     ["trop", "--heights", "FILE"]),
    ("tile of the wrong size", {"space": "hypersimplex", "n": 4, "tiles": ["(2,1)"]},
     ["tilings", "--t-dual", "FILE"]),
    ("graph with a negative n", {"n": -1, "edges": [], "vertices": [], "rotations": {}},
     ["cell", "--graph", "FILE"]),
] + [(f"black polygon {poly} under {cmd}",
      {"space": "hypersimplex", "k": 1, "n": 4, "tiles": [{"black_polygons": [poly]}]},
      ["tilings", cmd, "FILE"])
     for poly in ([1, 2], [1], [1, 2, 2]) for cmd in ("--verify", "--t-dual")])
def test_malformed_input_files_exit_2(capsys, tmp_path, name, data, argv):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(data))
    assert main([str(p) if a == "FILE" else a for a in argv]) == 2, name
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:")


def test_graph_on_no_boundary_vertices_and_the_k0_tile_stay_valid(capsys, tmp_path):
    p = tmp_path / "in.json"
    p.write_text(json.dumps({"n": 0, "edges": [], "vertices": [], "rotations": {}}))
    code, out = run(capsys, "cell", "--graph", str(p))
    assert code == 0 and json.loads(out)["perm"] == "()"
    p.write_text(json.dumps({"space": "hypersimplex", "k": 0, "n": 4,
                             "tiles": [{"black_polygons": []}]}))
    code, out = run(capsys, "tilings", "--verify", str(p))
    assert code == 0 and json.loads(out)["valid"]
    code, out = run(capsys, "tilings", "--t-dual", str(p))
    assert code == 0 and json.loads(out)["tiles"] == ["(1_,2_,3_,4_)"]


def test_trop_heights_k_above_n_names_the_bound(capsys, tmp_path):
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"k": 5, "n": 4, "heights": {}}))
    assert main(["trop", "--heights", str(p)]) == 2
    assert capsys.readouterr().err == "input error: need 0 <= k <= n, not k = 5, n = 4\n"


@pytest.mark.parametrize("argv, data", [
    (["tilings", "--k", "-1", "--n", "5"], None),
    (["tilings", "--space", "amplituhedron", "--k", "-1", "--n", "5"], None),
    (["tilings", "--verify", "FILE"],
     {"space": "hypersimplex", "k": -1, "n": 5, "tiles": [{"perm": "(2,3,4,5,1)"}]}),
], ids=["hypersimplex", "amplituhedron", "verify"])
def test_tilings_k_below_zero_names_the_bound(capsys, tmp_path, argv, data):
    p = tmp_path / "tiling.json"
    p.write_text(json.dumps(data))
    assert main([str(p) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: need 1 <= k+1 <= n-1\n"


def test_library_tiling_file_verifies_under_both_verify_commands(capsys, tmp_path):
    from positroid_lab.hypersimplex import enumerate_tilings

    # Tiling.to_json() names the rank as "k_plus_1"
    p = tmp_path / "tiling.json"
    p.write_text(json.dumps(enumerate_tilings(3, 6)[5].to_json()))
    code, out = run(capsys, "tilings", "--verify", str(p))
    assert code == 0 and json.loads(out)["valid"]
    code, out = run(capsys, "amp", "verify-tiling", "--file", str(p),
                    "--z", "vandermonde:0,1,2,3,4,5")
    report = json.loads(out)
    assert code == 0 and report["valid"] and (report["k"], report["n"]) == (2, 6)


def test_t_dual_labels_a_polygon_tile_as_its_permutation(capsys, tmp_path):
    # one amplituhedron tile, written as black polygons and as its label
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"space": "amplituhedron", "n": 4,
                             "tiles": [{"black_polygons": [[1, 2, 3]]}, "(2,3,1,4_)"]}))
    code, out = run(capsys, "tilings", "--t-dual", str(p))
    assert code == 0
    assert json.loads(out) == {"space": "hypersimplex", "n": 4,
                               "tiles": ["(3,1,4,2)", "(3,1,4,2)"]}


def test_amp_verify_tiling_reports_tiles_of_another_type(capsys, tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"space": "amplituhedron", "k": 2, "n": 4,
                             "tiles": [{"black_polygons": [[1, 2, 3]]},
                                       {"black_polygons": [[1, 3, 4]]}]}))
    code, out = run(capsys, "amp", "verify-tiling", "--file", str(p),
                    "--z", "vandermonde:0,1,2,3")
    report = json.loads(out)
    assert code == 1 and not report["valid"] and (report["k"], report["n"]) == (2, 4)
    assert sum("mismatched type" in v for v in report["violations"]) == 2
    # no tile of type (2,4) is listed, so none holds the witness of the one
    # (2,4) tile, A(4,2,2) itself
    assert not report["sample_audit_ok"] and "hit_counts" not in report
    assert report["violations"][-1] == "no listed tile holds the witness of tile (3,4,1,2)"


@pytest.mark.parametrize("argv", [
    ["tilings", "--verify", "FILE"],
    ["amp", "verify-tiling", "--file", "FILE", "--z", "vandermonde:0,1,2,3"],
])
def test_verify_without_a_rank_exits_2(capsys, tmp_path, argv):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"space": "amplituhedron", "n": 4,
                             "tiles": [{"black_polygons": [[1, 2, 3]]},
                                       {"black_polygons": [[1, 3, 4]]}]}))
    assert main([str(p) if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: missing key 'k' (or 'k_plus_1') in {p}\n"


def _z_file(tmp_path, n, p):
    path = tmp_path / "z.json"
    path.write_text(json.dumps(make_positive_Z(n, p, range(n)).to_json()))
    return path


@pytest.mark.parametrize("argv, shape, need", [
    (["amp", "verify-tiling", "--file", "FILE"], (5, 3), "4x3"),
    (["amp", "verify-tiling", "--file", "FILE"], (4, 4), "4x3"),
    (["amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,4,1)"], (5, 3), "4x3"),
    (["amp", "sample", "--n", "5", "--k", "1", "--m", "3", "--cell", "(2,3,4,5,1)"],
     (5, 3), "5x4"),
])
def test_z_file_of_the_wrong_shape_exits_2(capsys, tmp_path, argv, shape, need):
    tiles = tmp_path / "t.json"
    tiles.write_text(json.dumps(_POLYGON_TILES))
    z = _z_file(tmp_path, *shape)
    argv = [str(tiles) if a == "FILE" else a for a in argv] + ["--z", f"file:{z}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"input error: z file has {shape[0]}x{shape[1]} rows/cols, "
                            f"need {need}\n")


def test_z_file_of_the_right_shape_is_read(capsys, tmp_path):
    z = _z_file(tmp_path, 4, 3)
    code, out = run(capsys, "amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,4,1)",
                    "--count", "2", "--z", f"file:{z}")
    assert code == 0
    assert all(rec["m2_interior"] for rec in json.loads(out)["samples"])


@pytest.mark.parametrize("doc", [{"rows": []}, [["1", "0"], "1"], [[1, 0, 0]], [["x"]]])
def test_malformed_z_file_exits_2(capsys, tmp_path, doc):
    z = tmp_path / "z.json"
    z.write_text(json.dumps(doc))
    code = main(["amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,4,1)",
                 "--z", f"file:{z}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err


NOT_RATIONAL = "is not a rational: write \"p/q\" or an integer"


@pytest.mark.parametrize("text", ["0.5", "1e2", "1/2/3"])
def test_a_bad_z_node_is_named_with_the_option(capsys, text):
    code = main(["tilings", "--space", "amplituhedron", "--k", "1", "--n", "4",
                 "--z", f"vandermonde:0,{text},2,3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"input error: --z node 2: {text!r} {NOT_RATIONAL}\n"


@pytest.mark.parametrize("text", ["0.5", "1e2", "1/2/3"])
def test_a_bad_height_quotes_its_text(capsys, tmp_path, text):
    p = tmp_path / "h.json"
    p.write_text(json.dumps({"k": 2, "n": 4, "heights": {"1,2": text}}))
    code = main(["trop", "--heights", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"input error: height of '1,2': {text!r} {NOT_RATIONAL}\n"


@pytest.mark.parametrize("text", ["0.5", "1e2", "1/2/3"])
def test_a_bad_z_file_entry_is_named_by_row_and_column(capsys, tmp_path, text):
    z = tmp_path / "z.json"
    z.write_text(json.dumps([["1", "0"], ["1", text], ["1", "2"], ["1", "3"]]))
    code = main(["amp", "sample", "--n", "4", "--k", "1", "--m", "1", "--cell", "(2,3,4,1)",
                 "--z", f"file:{z}"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"input error: row 2, column 2: {text!r} {NOT_RATIONAL}\n"


def test_t_dual_needs_a_tiles_list(capsys, tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"space": "hypersimplex", "n": 4}))
    assert main(["tilings", "--t-dual", str(p)]) == 2
    assert capsys.readouterr().err == f"input error: missing key 'tiles' in {p}\n"


@pytest.mark.parametrize("argv", [
    ["tilings", "--k", "1", "--n", "4", "--format", "dot"],
    ["trop", "--heights", "demos/heights_two_pyramids.json", "--seed", "3"],
    ["cell", "--perm", "(3,1,4,2)", "--graph", "demos/g1.json"],  # one or the other
    ["cell"],
])
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["dot", "tikz"])
def test_cell_perm_cannot_be_drawn(capsys, fmt):
    assert main(["cell", "--perm", "(3,4,1,2)", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --format {fmt} draws a --graph, not a --perm\n"


def test_tiling_count_past_the_memo_bound_exits_2(capsys, monkeypatch):
    from positroid_lab import hypersimplex

    argv = ["tilings", "--k", "2", "--n", "7"]
    hypersimplex.count_tilings.cache_clear()
    monkeypatch.setattr(hypersimplex, "COUNT_MEMO_BITS", 1000)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: counting the tilings of (3,7) needs more")
    monkeypatch.setattr(hypersimplex, "COUNT_MEMO_BITS", 10 ** 6)
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["count"] == 13153


@pytest.mark.parametrize("k", ["1", "21", "11"])
def test_tiling_count_past_the_staircase_bound_exits_2_before_building_it(capsys, k):
    import time

    t0 = time.perf_counter()
    assert main(["tilings", "--k", k, "--n", "24"]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: counting the tilings of ({int(k) + 1},24) "
                                   "needs more than 131072 staircase simplices")


def _readme_command_lines():
    from pathlib import Path

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("positroid-lab ")]


def test_readme_command_block_has_its_examples():
    assert len(_readme_command_lines()) >= 10


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_exit_0(capsys, monkeypatch, line):
    import shlex
    from pathlib import Path

    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    argv = shlex.split(line, comments=True)[1:]
    code = main(argv)
    assert code == 0, capsys.readouterr().err


# -- fuzzing the exit-code contract --------------------------------------------

from hypothesis import HealthCheck, given, settings, strategies as st

# Integers stay small: a replaced size is then one the library computes at
# in milliseconds.  A large size is a valid request for a long computation,
# not malformed input, so it has no place in a test of the input contract.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8)

_PERM_TILES = {"space": "hypersimplex", "k": 1, "n": 4,
               "tiles": [{"perm": "(3,1,4,2)"}, {"perm": "(2,4,1,3)"}]}
_POLYGON_TILES = {"space": "amplituhedron", "k": 1, "n": 4,
                  "tiles": [{"black_polygons": [[1, 2, 3]]},
                            {"black_polygons": [[1, 3, 4]]}]}

# command -> (valid input, argv with FILE for its path, the record whose keys
# (or indices) are fuzzed besides the top-level ones)
FUZZ_CASES = {
    "trop": (HeightVector.make(2, 4, {(1, 2): 1}).to_json(),
             ["trop", "--heights", "FILE"], ("heights",)),
    "tilings-verify": (_PERM_TILES, ["tilings", "--verify", "FILE"], ("tiles", 0)),
    "tilings-verify-amplituhedron": (_POLYGON_TILES,
                                     ["tilings", "--verify", "FILE"],
                                     ("tiles", 0)),
    "tilings-t-dual": (_PERM_TILES, ["tilings", "--t-dual", "FILE"], ("tiles", 1)),
    "tilings-t-dual-polygons": (_POLYGON_TILES, ["tilings", "--t-dual", "FILE"],
                                ("tiles", 0)),
    "amp-verify-tiling": (_POLYGON_TILES,
                          ["amp", "verify-tiling", "--file", "FILE",
                           "--z", "vandermonde:0,1,2,3"],
                          ("tiles", 0)),
    "cell-graph": (graphs.g1().to_json(), ["cell", "--graph", "FILE"],
                   ("vertices", 1)),
    "amp-sample-z-file": (make_positive_Z(4, 3, range(4)).to_json(),
                          ["amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,4,1)",
                           "--count", "2", "--z", "file:FILE"], (0,)),
}


def _slots(data, record_path):
    def keys(doc):
        return range(len(doc)) if isinstance(doc, list) else doc

    record = data
    for step in record_path:
        record = record[step]
    return [(key,) for key in keys(data)] + [record_path + (key,) for key in keys(record)]


@pytest.mark.parametrize("command", sorted(FUZZ_CASES))
@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_under_one_replaced_value(tmp_path, command, data):
    import contextlib
    import copy
    import io

    valid, argv, record_path = FUZZ_CASES[command]
    slot = data.draw(st.sampled_from(_slots(valid, record_path)), label="slot")
    value = data.draw(JSON_VALUES, label="value")
    doc = copy.deepcopy(valid)
    target = doc
    for step in slot[:-1]:
        target = target[step]
    target[slot[-1]] = value
    p = tmp_path / "in.json"
    p.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("FILE", str(p)) for a in argv])
    _assert_exit_contract(code, out.getvalue(), err.getvalue())


def _assert_exit_contract(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2)
    if code == 1:
        # exit 1 only for a mathematical verdict, reported on stdout
        verdict = json.loads(out)
        assert (verdict.get("valid") is False or verdict.get("positive_tropical") is False
                or False in verdict.get("audited", ()))
    if code == 2:
        assert err.startswith("input error:")


# --z vandermonde: node lists of three to five nodes, each an integer (so
# repeats and wrong orders come up) or a string: a zero denominator, an empty
# node, a decimal or a non-number
Z_NODES = st.lists(st.integers(-3, 9).map(str) | st.sampled_from(
    ["1/0", "0/0", "", " ", "1/2", "-7/3", "0.5", "1e2", "x", "1/2/3", "2/-3"])
    | st.text(max_size=3), min_size=3, max_size=5)

Z_COMMANDS = {
    "tilings": ["tilings", "--space", "amplituhedron", "--k", "1", "--n", "4"],
    "amp-sample": ["amp", "sample", "--n", "4", "--k", "1", "--cell", "(2,3,4,1)",
                   "--count", "2"],
    "amp-verify-tiling": ["amp", "verify-tiling", "--file", "FILE"],
}


@pytest.mark.parametrize("command", sorted(Z_COMMANDS))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nodes=Z_NODES)
def test_cli_contract_under_a_drawn_z_spec(tmp_path, command, nodes):
    import contextlib
    import io

    p = tmp_path / "in.json"
    p.write_text(json.dumps(_POLYGON_TILES))
    argv = [a.replace("FILE", str(p)) for a in Z_COMMANDS[command]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--z", "vandermonde:" + ",".join(nodes)])
    _assert_exit_contract(code, out.getvalue(), err.getvalue())


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("argv, seed", [
    (["cell", "--perm", "(3,1,4,2)", "--sample", "2", "--seed", "5"], 5),
    (["cell", "--graph", str(DEMOS / "g1.json"), "--matchings", "--seed", "3"], None),
    (["tilings", "--space", "amplituhedron", "--k", "1", "--n", "5",
      "--z", "vandermonde:0,1,2,3,4"], None),
    (["tilings", "--verify", str(DEMOS / "tiling_square.json"), "--format", "text"], None),
    (["trop", "--heights", str(DEMOS / "heights_two_pyramids.json")], None),
    (["amp", "sample", "--n", "5", "--k", "2", "--cell", "(3,4,5,1,2)", "--count", "2",
      "--seed", "7"], 7),
    (["amp", "verify-tiling", "--file", str(DEMOS / "tiling_square.json"),
      "--z", "vandermonde:0,1,2,3", "--seed", "2"], None),
    (["amp", "sample", "--n", "5", "--k", "1", "--cell", "(3,4,5,1,2)", "--seed", "4"], 4),
], ids=["cell", "cell-graph", "tilings", "tilings-verify", "trop", "amp-sample",
        "amp-verify", "input-error"])
def test_stats_write_one_json_object_to_stderr_and_leave_stdout_alone(capsys, argv, seed):
    code = main(argv)
    plain = capsys.readouterr()
    assert main(argv + ["--stats"]) == code
    stats = capsys.readouterr()
    assert stats.out == plain.out
    assert stats.err.startswith(plain.err)
    record = json.loads(stats.err[len(plain.err):])
    assert record["seed"] == seed and isinstance(record["counters"], dict)
    assert not obs.enabled and main(argv) == code and capsys.readouterr() == plain


def test_trop_stats_name_the_walk_and_count_its_cells(capsys, tmp_path):
    code = main(["trop", "--heights", str(DEMOS / "heights_two_pyramids.json"), "--stats"])
    captured = capsys.readouterr()
    assert code == 0 and len(json.loads(captured.out)["cells"]) == 2
    assert json.loads(captured.err) == {
        "seed": None, "counters": {"trop.cells": 2, "trop.flat_faces": 0, "trop.shots": 24,
                                   "trop.wall_walk": 1}}
