import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandembed.cli import main, run_full_pipeline
from bandembed.graph import Graph, graph_to_json
from bandembed.hostgen import (
    HostBundle,
    gen_bandwidth_bipartite_h,
    gen_extremal_counterexample,
    gen_super_regular_host,
)
from bandembed.homomorphism import build_homomorphism, choose_h_parameters
from bandembed.partition import ClusterPartition, Config

from conftest import strip_seconds, two_cliques


SMALL_CONFIG = ("n0 = 32\nlam = 0.05\nxi = 0.30\neps_prime = 0.45\neps = 0.5\n"
                "d = 0.30\nd_prime = 0.40\nnu = 0.45\ntau = 0.45\neta = 0.55\n")


@pytest.fixture
def small_world(tmp_path):
    """Files for a k=2 host on 64 vertices and a matching-size target."""
    host = gen_super_regular_host(k=2, size=16, d=0.7, chords=((0, 1), (0, 1)), seed=3)
    target = gen_bandwidth_bipartite_h(64, 2, 1, seed=3)
    host_path = tmp_path / "host.json"
    h_path = tmp_path / "h.json"
    host_path.write_text(json.dumps(host.to_json()))
    h_path.write_text(json.dumps(target.to_json()))
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(SMALL_CONFIG)
    return host_path, h_path, cfg_path


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(g)))
    return path


class TestCheckers:
    def test_expander_pass_and_fail(self, tmp_path, capsys):
        from bandembed.hostgen import gen_cycle_blowup

        good = write_graph(tmp_path, gen_cycle_blowup(5, 3), "good.json")
        assert main(["check-expander", "--graph", str(good),
                     "--nu", "0.05", "--tau", "0.21"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["holds"] and out["mode"] == "exact"

        bad = write_graph(tmp_path, two_cliques(7), "bad.json")
        assert main(["check-expander", "--graph", str(bad),
                     "--nu", "0.1", "--tau", "0.3"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert not out["holds"] and "witness" in out

    @staticmethod
    def pair_files(tmp_path, size):
        """A complete size x size bipartite pair and its two classes, as files."""
        g = Graph(2 * size, [(u, v) for u in range(size) for v in range(size, 2 * size)])
        part = tmp_path / "pair.json"
        part.write_text(json.dumps({"classes": [list(range(size)),
                                                list(range(size, 2 * size))]}))
        return write_graph(tmp_path, g, "pair_graph.json"), part

    def test_pair_with_eps_above_one_is_regular_in_heuristic_mode(self, tmp_path, capsys):
        graph, part = self.pair_files(tmp_path, 8)
        assert main(["check-pair", "--graph", str(graph), "--partition", str(part),
                     "--a", "0", "--b", "1", "--eps", "1.5", "--density", "0.1",
                     "--mode", "heuristic"]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["regular"] and "witness" not in out
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["check-pair", "check-expander"])
    def test_exact_size_cap_is_an_input_error(self, tmp_path, capsys, command):
        # Above the cap nothing is decided, so this is no certified failure.
        graph, part = self.pair_files(tmp_path, 20)
        argv = {
            "check-pair": ["--partition", str(part), "--a", "0", "--b", "1",
                           "--eps", "0.3", "--density", "0.1"],
            "check-expander": ["--nu", "0.1", "--tau", "0.3"],
        }[command]
        assert main([command, "--graph", str(graph), "--mode", "exact", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: exact") and "capped" in err

    @pytest.mark.parametrize("value, code", [("-3", 1), ("0", 0)])
    def test_pair_budget_sign(self, tmp_path, capsys, value, code):
        host = tmp_path / "host.json"
        assert main(["gen-host", "--kind", "super-regular", "--k", "2", "--size", "14",
                     "--seed", "1", "--json-out", str(host)]) == 0
        assert main(["check-pair", "--graph", str(host), "--partition", str(host),
                     "--a", "0", "--b", "1", "--eps", "0.2", "--density", "0.1",
                     "--mode", "heuristic", "--budget", value]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("input error: budget must be nonnegative")
        else:
            assert json.loads(captured.out)["regular"]

    @pytest.mark.parametrize("value, code", [("-5", 1), ("0", 0)])
    def test_expander_trials_sign(self, tmp_path, capsys, value, code):
        graph = write_graph(tmp_path, two_cliques(7))
        assert main(["check-expander", "--graph", str(graph), "--nu", "0.1", "--tau", "0.3",
                     "--mode", "sampled", "--trials", value]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err.startswith("input error: trials must be nonnegative")
        else:
            assert json.loads(captured.out)["trials"] == 0

    @pytest.mark.parametrize("shape", ["bundle", "bare"])
    def test_checks_read_gen_host_output(self, tmp_path, capsys, shape):
        paths = {}
        for name, argv in (("random", ["--kind", "random", "--n", "12", "--p", "0.5"]),
                           ("host", ["--kind", "super-regular", "--k", "2", "--size", "6"])):
            bundle = tmp_path / f"{name}.json"
            assert main(["gen-host", *argv, "--seed", "1", "--json-out", str(bundle)]) == 0
            paths[name] = {"graph": bundle, "partition": bundle}
            if shape == "bare":
                data = json.loads(bundle.read_text())
                for key in data:
                    paths[name][key] = tmp_path / f"{name}_{key}.json"
                    paths[name][key].write_text(json.dumps(data[key]))
        capsys.readouterr()
        assert main(["check-expander", "--graph", str(paths["random"]["graph"]),
                     "--nu", "0.1", "--tau", "0.3"]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["mode"] == "exact"
        assert main(["check-pair", "--graph", str(paths["host"]["graph"]),
                     "--partition", str(paths["host"]["partition"]), "--a", "0", "--b", "1",
                     "--eps", "0.4", "--density", "0.2"]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["mode"] == "exact"
        assert main(["build-reduced", "--graph", str(paths["host"]["graph"]),
                     "--partition", str(paths["host"]["partition"]),
                     "--eps", "0.4", "--density", "0.2"]) == 0
        assert len(json.loads(capsys.readouterr().out)["clusters"]) == 4

    def test_degseq_and_ore(self, tmp_path, capsys):
        ext = write_graph(tmp_path, gen_extremal_counterexample(10, 4), "ext.json")
        assert main(["check-degseq", "--graph", str(ext), "--gamma", "0.1"]) == 2
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["index_rounding"] == "floor"

        clique_iso = write_graph(
            tmp_path, Graph(10, [(u, v) for u in range(9) for v in range(u + 1, 9)]),
            "cliqueiso.json",
        )
        assert main(["check-ore", "--graph", str(clique_iso), "--gamma", "0.1"]) == 2
        verdict = json.loads(capsys.readouterr().out)
        assert 9 in verdict["witness"]

    def test_find_walk(self, tmp_path, capsys):
        from conftest import complete_graph

        g = write_graph(tmp_path, complete_graph(4))
        m_path = tmp_path / "m.json"
        m_path.write_text(json.dumps({"pairs": [[0, 1], [2, 3]]}))
        assert main(["find-walk", "--graph", str(g), "--matching", str(m_path),
                     "--start", "0", "--nu", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["walk"][0] == out["walk"][-1] == 0

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check-degseq", "--graph", str(bad), "--gamma", "0.1"]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("graph", [
        {"n": 3, "edges": [[0, 1, 2]]},
        {"n": 3, "edges": [[0.0, 1]]},
        {"n": "4", "edges": []},
        {"n": True, "edges": []},
    ])
    def test_malformed_graph_is_input_error(self, tmp_path, capsys, graph):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(graph))
        assert main(["check-degseq", "--graph", str(bad), "--gamma", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {bad}: graph JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, value", [
        pytest.param(["check-degseq", "--gamma", "nan"], "nan", id="check-degseq"),
        pytest.param(["check-ore", "--gamma", "inf"], "inf", id="check-ore"),
        pytest.param(["check-expander", "--nu", "nan", "--tau", "0.3"], "nan",
                     id="check-expander"),
    ])
    def test_non_finite_threshold_is_input_error(self, tmp_path, capsys, argv, value):
        g = write_graph(tmp_path, two_cliques(4))
        assert main(argv + ["--graph", str(g)]) == 1
        assert capsys.readouterr().err == f"input error: {value} is not a finite number\n"


class TestGenerators:
    def test_gen_host_and_gen_h(self, tmp_path):
        host_path = tmp_path / "host.json"
        assert main(["gen-host", "--kind", "super-regular", "--k", "2", "--size", "8",
                     "--density", "0.8", "--seed", "5", "--json-out", str(host_path)]) == 0
        data = json.loads(host_path.read_text())
        assert len(data["partition"]["classes"]) == 4

        h_path = tmp_path / "h.json"
        assert main(["gen-h", "--n", "40", "--delta", "2", "--bandwidth", "3",
                     "--seed", "5", "--json-out", str(h_path)]) == 0
        data = json.loads(h_path.read_text())
        assert data["graph"]["n"] == 40


class TestUsage:
    def test_usage_error_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline"])
        assert exc.value.code == 1
        assert "required" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        pytest.param(["check-degseq", "--graph", "g.json", "--gamma", "0.1", "--seed", "1"],
                     id="check-degseq-seed"),
        pytest.param(["check-ore", "--graph", "g.json", "--gamma", "0.1", "--seed", "1"],
                     id="check-ore-seed"),
        pytest.param(["find-walk", "--graph", "g.json", "--matching", "m.json", "--start", "0",
                      "--nu", "0.5", "--seed", "1"], id="find-walk-seed"),
        pytest.param(["check-pair", "--graph", "g.json", "--partition", "g.json", "--a", "0",
                      "--b", "1", "--eps", "0.3", "--density", "0.3", "--config", "c.txt"],
                     id="check-pair-config"),
        pytest.param(["check-pair", "--graph", "g.json", "--partition", "g.json", "--a", "0",
                      "--b", "1", "--eps", "0.3", "--density", "0.3", "--seed", "1"],
                     id="check-pair-seed"),
        pytest.param(["build-reduced", "--graph", "g.json", "--partition", "g.json",
                      "--eps", "0.3", "--density", "0.3", "--seed", "1"], id="build-reduced-seed"),
        pytest.param(["lemma-g", "--host", "g.json", "--seed", "1"], id="lemma-g-seed"),
        pytest.param(["embed", "--host", "g.json", "--h", "h.json", "--hom", "f.json",
                      "--config", "c.txt"], id="embed-config"),
    ])
    def test_unread_options_are_not_accepted(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_gen_host_bad_chords(self, capsys):
        assert main(["gen-host", "--chords", "1,2"]) == 1
        assert capsys.readouterr().err == (
            "input error: --chords needs 4 comma-separated integers, got '1,2'\n"
        )

    def test_build_hom_bad_chord(self, small_world, tmp_path, capsys):
        _, h_path, cfg_path = small_world
        sizes_path = tmp_path / "sizes.json"
        sizes_path.write_text(json.dumps({"sizes": [16, 16, 16, 16]}))
        assert main(["build-hom", "--h", str(h_path), "--sizes", str(sizes_path),
                     "--chord", "a,b", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            "input error: --chord needs 2 comma-separated integers, got 'a,b'\n"
        )

    @pytest.mark.parametrize("key", ["graph", "ordering", "bipartition"])
    def test_target_bundle_missing_key(self, small_world, tmp_path, capsys, key):
        host_path, h_path, cfg_path = small_world
        bundle = json.loads(h_path.read_text())
        del bundle[key]
        bad = tmp_path / "h.json"
        bad.write_text(json.dumps(bundle))
        assert main(["pipeline", "--host", str(host_path), "--h", str(bad),
                     "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f'input error: {bad} has no "{key}" key\n'


_PAIR = ["--eps", "0.3", "--density", "0.3"]


def _ordering_without(key):
    return lambda host, target: dict(
        target, ordering={k: v for k, v in target["ordering"].items() if k != key})


class TestMalformedFiles:
    # (argv with {bad} for the malformed file, its content built from the
    # small_world host and target, the path or option the error names)
    @pytest.mark.parametrize("argv, content, named", [
        # Host side.
        pytest.param(["lemma-g", "--host", "{bad}"], lambda host, target: 5, "{bad}",
                     id="host-not-an-object"),
        pytest.param(["lemma-g", "--host", "{host}", "--partition", "{bad}"],
                     lambda host, target: {"a_chord": None}, "{bad}",
                     id="partition-file-without-classes"),
        pytest.param(["lemma-g", "--host", "{bad}"],
                     lambda host, target: dict(host, partition={"class": []}), "{bad}",
                     id="host-partition-without-classes"),
        pytest.param(["lemma-g", "--host", "{bad}"],
                     lambda host, target: dict(host, partition={"classes": [[0], [1], [2], [64]]}),
                     "{bad}", id="partition-vertex-outside-graph"),
        pytest.param(["check-pair", "--graph", "{graph}", "--partition", "{bad}", "--a", "0",
                      "--b", "1", *_PAIR], lambda host, target: {"class": []}, "{bad}",
                     id="check-pair-without-classes"),
        pytest.param(["build-reduced", "--graph", "{graph}", "--partition", "{bad}", *_PAIR],
                     lambda host, target: [], "{bad}", id="build-reduced-partition-not-an-object"),
        pytest.param(["check-pair", "--graph", "{graph}", "--partition", "{bad}", "--a", "0",
                      "--b", "9", *_PAIR], lambda host, target: host["partition"], "--b 9",
                     id="check-pair-class-index"),
        # Target side and the other loaders.
        pytest.param(["build-hom", "--h", "{bad}", "--sizes", "{sizes}", "--chord", "1,3"],
                     _ordering_without("labels"), "{bad}", id="ordering-without-labels"),
        pytest.param(["build-hom", "--h", "{bad}", "--sizes", "{sizes}", "--chord", "1,3"],
                     _ordering_without("bound"), "{bad}", id="ordering-without-bound"),
        pytest.param(["build-hom", "--h", "{bad}", "--sizes", "{sizes}", "--chord", "1,3"],
                     lambda host, target: dict(target, bipartition=[[0, 1], 5]), "{bad}",
                     id="bipartition-not-two-lists"),
        pytest.param(["embed", "--host", "{host}", "--h", "{h}", "--hom", "{bad}"],
                     lambda host, target: {"g": []}, "{bad}", id="hom-without-f"),
        pytest.param(["embed", "--host", "{host}", "--h", "{h}", "--hom", "{bad}"],
                     lambda host, target: {"f": [0] * 63}, "{bad}", id="hom-f-too-short"),
        pytest.param(["find-walk", "--graph", "{graph}", "--matching", "{bad}", "--start", "0",
                      "--nu", "0.5"], lambda host, target: {"pair": []}, "{bad}",
                     id="matching-without-pairs"),
        pytest.param(["lemma-g", "--host", "{host}", "--demand", "{bad}"],
                     lambda host, target: {"sizes": [16, "16", 16, 16]}, "{bad}",
                     id="demand-sizes-not-ints"),
        pytest.param(["build-hom", "--h", "{h}", "--sizes", "{bad}", "--chord", "1,3"],
                     lambda host, target: {"sizes": 5}, "{bad}", id="sizes-not-a-list"),
    ])
    def test_exits_1_naming_the_file(self, small_world, tmp_path, capsys, argv, content, named):
        host_path, h_path, cfg_path = small_world
        host = json.loads(host_path.read_text())
        files = {
            "host": host_path, "h": h_path, "bad": tmp_path / "bad.json",
            "graph": tmp_path / "graph.json", "sizes": tmp_path / "sizes.json",
        }
        files["bad"].write_text(json.dumps(content(host, json.loads(h_path.read_text()))))
        files["graph"].write_text(json.dumps(host["graph"]))
        files["sizes"].write_text(json.dumps({"sizes": [16, 16, 16, 16]}))
        names = {key: str(path) for key, path in files.items()}
        argv = [arg.format(**names) for arg in argv]
        if argv[0] in ("lemma-g", "build-hom"):
            argv += ["--config", str(cfg_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and err.count("\n") == 1
        assert named.format(**names) in err

    def test_graph_file_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"n": 0, "edges": []}')
        assert main(["check-degseq", "--graph", str(bad), "--gamma", "0.1"]) == 1
        assert capsys.readouterr().err == f"input error: {bad}: not UTF-8 text\n"

    def test_config_file_not_utf8(self, small_world, tmp_path, capsys):
        host_path, _, _ = small_world
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfexi = 0.3\n")
        assert main(["lemma-g", "--host", str(host_path), "--config", str(bad)]) == 1
        assert capsys.readouterr().err == f"input error: {bad}: not UTF-8 text\n"

    @pytest.mark.parametrize("which", ["host", "h"])
    def test_embed_names_the_bad_graph_file(self, small_world, tmp_path, capsys, which):
        host_path, h_path, _ = small_world
        files = {"host": host_path, "h": h_path}
        bundle = json.loads(files[which].read_text())
        files[which] = tmp_path / "bad.json"
        files[which].write_text(json.dumps(dict(bundle, graph={"n": "64", "edges": []})))
        hom = tmp_path / "hom.json"
        hom.write_text(json.dumps({"f": [0] * 64}))
        argv = ["embed", "--host", str(files["host"]), "--h", str(files["h"]),
                "--hom", str(hom)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"input error: {files[which]}: graph JSON")


# Loader fuzzing: generated JSON, from well-shaped to arbitrary, in every file
# a command reads.  Integers stay small so that no input builds a large graph.
_INTS = st.integers(-3, 40)
_KEYS = ["n", "edges", "graph", "partition", "classes", "a_chord", "b_chord", "ordering",
         "labels", "bound", "bipartition", "sizes", "f", "pairs"]
_ANY = st.recursive(
    st.none() | st.booleans() | _INTS | st.sampled_from(["", "a"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=12,
)
_INT_LIST = st.lists(_INTS, max_size=8)
_PAIRS = st.lists(st.lists(_INTS, min_size=2, max_size=2), max_size=8)


def _shaped(**fields):
    """An object with the given keys, each value well-typed or arbitrary; or anything."""
    return st.fixed_dictionaries({k: v | _ANY for k, v in fields.items()}) | _ANY


_GRAPH = _shaped(n=_INTS, edges=_PAIRS)
_PARTITION = _shaped(classes=st.lists(_INT_LIST, max_size=6),
                     a_chord=st.none() | st.lists(_INTS, min_size=2, max_size=2),
                     b_chord=st.none() | st.lists(_INTS, min_size=2, max_size=2))
_FILES = {
    "graph": _GRAPH,
    "host": _shaped(graph=_GRAPH, partition=_PARTITION),
    "partition": _PARTITION,
    "target": _shaped(graph=_GRAPH, ordering=_shaped(labels=_INT_LIST, bound=_INTS),
                      bipartition=st.lists(_INT_LIST, min_size=2, max_size=2)),
    "sizes": _shaped(sizes=_INT_LIST),
    "hom": _shaped(f=_INT_LIST),
    "matching": _shaped(pairs=_PAIRS),
}
_FUZZ_COMMANDS = [
    ["lemma-g", "--host", "{host}", "--demand", "{sizes}"],
    ["lemma-g", "--host", "{graph}", "--partition", "{partition}"],
    ["check-pair", "--graph", "{graph}", "--partition", "{partition}", "--a", "{a}",
     "--b", "{b}", "--eps", "0.3", "--density", "0.3", "--super"],
    ["build-reduced", "--graph", "{graph}", "--partition", "{partition}", "--eps", "0.3",
     "--density", "0.3"],
    ["build-hom", "--h", "{target}", "--sizes", "{sizes}", "--chord", "1,3"],
    ["embed", "--host", "{host}", "--h", "{target}", "--hom", "{hom}"],
    ["find-walk", "--graph", "{graph}", "--matching", "{matching}", "--start", "0",
     "--nu", "0.5"],
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_FUZZ_COMMANDS), st.data())
def test_loader_fuzz_exits_0_1_or_2(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        names = {"a": str(data.draw(st.integers(-1, 6))), "b": str(data.draw(st.integers(-1, 6)))}
        for key, files in _FILES.items():
            if "{%s}" % key in argv:
                path = Path(tmp) / f"{key}.json"
                path.write_text(json.dumps(data.draw(files, label=key)))
                names[key] = str(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main([arg.format(**names) for arg in argv])
    assert code in (0, 1, 2)


# Each command runs in a temporary directory; "> name" saves its stdout there as
# the input file `name` of later commands.
_PIN_RUNS = [
    "gen-host --kind super-regular --k 2 --size 16 --density 0.7 --chords 0,1,0,1 --seed 3 > host.json",
    "gen-host --kind super-regular --k 2 --size 8 --density 0.5 --seed 2 > small.json",
    "gen-host --kind super-regular --k 3 --size 40 --density 0.5 --seed 0 > host3.json",
    "gen-host --kind cycle-blowup --classes 5 --size 3 > blowup.json",
    "gen-host --kind extremal --n 10 --m 4 > extremal.json",
    "gen-host --kind random --n 12 --p 0.5 --seed 1 > random.json",
    "gen-host --kind random --n 12 --p 0.9 --seed 2 > dense.json",
    "gen-h --n 64 --delta 2 --bandwidth 1 --seed 3 > h.json",
    "gen-h --n 63 --delta 2 --bandwidth 1 --seed 3 > h63.json",
    "gen-h --n 240 --delta 3 --bandwidth 5 --seed 0 > h3.json",
    "check-expander --graph blowup.json --nu 0.05 --tau 0.21",
    "check-expander --graph random.json --nu 0.1 --tau 0.3",
    "check-expander --graph extremal.json --nu 0.1 --tau 0.3",
    "check-expander --graph dense.json --nu 0.1 --tau 0.3 --mode sampled --trials 20 --seed 1",
    "check-degseq --graph dense.json --gamma 0.1",
    "check-degseq --graph extremal.json --gamma 0.1",
    "check-ore --graph dense.json --gamma 0.1",
    "check-ore --graph extremal.json --gamma 0.1",
    "check-pair --graph small.json --partition small.json --a 0 --b 1 --eps 0.4 --density 0.2",
    "check-pair --graph small.json --partition small.json --a 0 --b 1 --eps 0.1 --density 0.2",
    "check-pair --graph small.json --partition small.json --a 0 --b 1 --eps 0.4 --density 0.2 --super",
    "check-pair --graph small.json --partition small.json --a 0 --b 1 --eps 0.1 --density 0.2 --super",
    "check-pair --graph host.json --partition host.json --a 0 --b 1 --eps 0.3 --density 0.2 "
    "--mode heuristic",
    "build-reduced --graph host.json --partition host.json --eps 0.4 --density 0.2",
    "find-walk --graph k4.json --matching matching.json --start 0 --nu 0.5",
    "find-walk --graph two_edges.json --matching matching.json --start 0 --nu 0.5",
    "lemma-g --host host.json --config cfg.txt",
    "lemma-g --host host.json",
    "lemma-g --host host.json --config cfg.txt --demand equal.json",
    "lemma-g --host host.json --config cfg.txt --demand shifted.json",
    "lemma-g --host host.json --config cfg.txt --demand empty_class.json",
    "build-hom --h h.json --sizes equal.json --chord 1,3 --config cfg.txt --seed 2 --coins > hom.json",
    "build-hom --h h.json --sizes shifted.json --chord 1,3 --config cfg.txt --seed 2",
    "build-hom --h h3.json --sizes equal3.json --chord 1,5 --seed 0 > hom3.json",
    "embed --host host.json --h h.json --hom hom.json --seed 0",
    "embed --host host3.json --h h3.json --hom hom3.json --seed 0",
    "montecarlo-balance --n 256 --runs 3 --seed 3",
    "pipeline --host host.json --h h.json --config cfg.txt --seed 4",
    "pipeline --host host.json --h h63.json --config cfg.txt --seed 4",
    "pipeline --host host3.json --h h3.json --seed 0",
]


class TestSubcommandPin:
    def test_every_subcommand_output_pinned(self, tmp_path, monkeypatch, capsys):
        # sha256 over (argv, exit code, stdout without "seconds") of every run.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(SMALL_CONFIG)
        inputs = {
            "k4.json": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]},
            "two_edges.json": {"n": 4, "edges": [[0, 1], [2, 3]]},
            "matching.json": {"pairs": [[0, 1], [2, 3]]},
            "equal.json": {"sizes": [16, 16, 16, 16]},
            "shifted.json": {"sizes": [18, 14, 16, 16]},
            "empty_class.json": {"sizes": [0, 32, 16, 16]},
            "equal3.json": {"sizes": [40] * 6},
        }
        for name, data in inputs.items():
            (tmp_path / name).write_text(json.dumps(data))
        records = []
        for run in _PIN_RUNS:
            command, _, save = run.partition(" > ")
            code = main(command.split())
            out = capsys.readouterr().out
            if save:
                (tmp_path / save).write_text(out)
            stdout = json.dumps(strip_seconds(json.loads(out)), sort_keys=True) if out else ""
            records.append([command, code, stdout])
        assert [code for _, code, _ in records] == [
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0,  # generators
            0, 0, 2, 0, 0, 2, 0, 2,  # check-expander, check-degseq, check-ore
            0, 2, 0, 2, 2, 0,  # check-pair, build-reduced
            0, 2, 0, 0, 0, 0, 2,  # find-walk, lemma-g
            0, 0, 0, 0, 1, 0,  # build-hom, embed, montecarlo-balance
            0, 1, 2,  # pipeline
        ]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "b11ce604f103157fd0d6fb8baea74da878f0ac905ffd89bd8ff346077834856b"


class TestPipelineCommand:
    def test_success_run_replays(self, small_world, tmp_path, capsys):
        host_path, h_path, cfg_path = small_world
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["pipeline", "--host", str(host_path), "--h", str(h_path),
                         "--config", str(cfg_path), "--seed", "4",
                         "--json-out", str(out)])
            assert code == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["ok"] and r1["embedding"] == r2["embedding"]
        names = [s["name"] for s in r1["stages"]]
        assert names == ["host-partition", "homomorphism", "redistribute",
                         "verify-partition", "compatibility", "embed",
                         "verify-embedding"]

    def test_negative_host_fails_certified(self, tmp_path):
        # A host with no usable pair structure aborts at a named stage and
        # never claims success.
        g = gen_extremal_counterexample(100, 40)
        part = ClusterPartition(
            [set(range(25 * i, 25 * (i + 1))) for i in range(4)],
            a_chord=(0, 1), b_chord=(0, 1),
        )
        target = gen_bandwidth_bipartite_h(100, 2, 1, seed=0)
        report = run_full_pipeline(
            HostBundle(g, part), target, Config(), seed=0
        )
        assert not report.ok
        assert report.failed_stage is not None
        assert report.embedding is None
        # Host-side failures surface under their own type, not a wrapper.
        assert report.stages[-1].detail["error"].startswith("StructuralError:")

    def test_partition_certified_once(self, small_world, tmp_path, monkeypatch):
        import bandembed.cli
        import bandembed.partition

        calls = []
        original = bandembed.partition.verify_partition_structure

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (bandembed.cli, bandembed.partition):
            monkeypatch.setattr(module, "verify_partition_structure", counting)
        host_path, h_path, cfg_path = small_world
        assert main(["pipeline", "--host", str(host_path), "--h", str(h_path),
                     "--config", str(cfg_path), "--seed", "4",
                     "--json-out", str(tmp_path / "r.json")]) == 0
        assert len(calls) == 1

    def test_lemma_g_subcommand(self, small_world, capsys):
        host_path, _, cfg_path = small_world
        assert main(["lemma-g", "--host", str(host_path), "--config", str(cfg_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k"] == 2 and out["structure"]["all_ok"]

    def test_lemma_g_reports_a_failed_balance(self, tmp_path, monkeypatch, capsys):
        # A skew that balancing mends in one walk step, after which class 0 is
        # cut below n/(3k): lemma-g still writes the steps of the balance.
        import bandembed.partition

        host = gen_super_regular_host(k=4, size=50, d=0.5, seed=42)
        skew = host.partition.copy()
        moved = set(sorted(skew.classes[0])[:10])
        skew.classes[0] -= moved
        skew.classes[5] |= moved
        host_path, skew_path = tmp_path / "host.json", tmp_path / "skew.json"
        host_path.write_text(json.dumps(host.to_json()))
        skew_path.write_text(json.dumps(skew.to_json()))
        real, ledgers = bandembed.partition.balance_partition, []

        def cut_class_0(*args):
            out, ledger = real(*args)
            ledgers.append(ledger)
            out.classes[1] |= set(sorted(out.classes[0])[:40])
            out.classes[0] -= out.classes[1]
            return out, ledger

        monkeypatch.setattr(bandembed.partition, "balance_partition", cut_class_0)
        assert main(["lemma-g", "--host", str(host_path), "--partition", str(skew_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "certified failure: a class fell to n/(3k) or below\n"
        (step,) = ledgers[0].steps
        assert step.moves
        assert json.loads(captured.out) == {
            "error": "BalancingError: a class fell to n/(3k) or below",
            "balance_steps": 1,
            "steps": [{"walk_classes": list(step.walk_classes),
                       "moved_per_hop": step.moved_per_hop, "sigma_before": step.sigma_before,
                       "sigma_after": step.sigma_after, "retired_pairs": step.retired_pairs}],
        }

    def test_failed_host_partition_keeps_the_balance_steps(self, tmp_path, capsys):
        # Moving class 0's 30 lowest vertices into class 5 leaves a skew whose
        # balance ends with class 0 at n/(3k) or below: pipeline and lemma-g
        # both fail there and write the same balance steps.
        host = gen_super_regular_host(k=4, size=50, d=0.5, seed=42)
        skew = host.partition.copy()
        moved = set(sorted(skew.classes[0])[:30])
        skew.classes[0] -= moved
        skew.classes[5] |= moved
        host_path, h_path = tmp_path / "host.json", tmp_path / "h.json"
        host_path.write_text(json.dumps(HostBundle(host.graph, skew).to_json()))
        h_path.write_text(json.dumps(gen_bandwidth_bipartite_h(400, 3, 10, seed=42).to_json()))
        assert main(["pipeline", "--host", str(host_path), "--h", str(h_path)]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["failed_stage"] == "host-partition"
        assert main(["lemma-g", "--host", str(host_path)]) == 2
        lemma = json.loads(capsys.readouterr().out)
        assert lemma["error"] == "BalancingError: a class fell to n/(3k) or below"
        assert lemma["balance_steps"] == 3
        assert report["stages"][-1]["detail"] == lemma

    def test_sizes_file_without_sizes_key(self, small_world, tmp_path, capsys):
        host_path, h_path, cfg_path = small_world
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"size": [16, 16, 16, 16]}))
        for argv in (
            ["lemma-g", "--host", str(host_path), "--demand", str(bad)],
            ["build-hom", "--h", str(h_path), "--sizes", str(bad), "--chord", "1,3"],
        ):
            assert main(argv + ["--config", str(cfg_path)]) == 1
            err = capsys.readouterr().err
            assert err == f'input error: {bad} has no "sizes" key\n'

    def test_non_finite_config_stops_before_any_stage(self, small_world, tmp_path, capsys):
        host_path, h_path, _ = small_world
        cfg_path = tmp_path / "nan.txt"
        cfg_path.write_text("eps = nan\n")
        assert main(["pipeline", "--host", str(host_path), "--h", str(h_path),
                     "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: config values must be finite, got eps=nan\n"

    def test_lemma_g_host_below_n0(self, small_world, tmp_path, capsys):
        host_path, _, _ = small_world
        cfg_path = tmp_path / "big.txt"
        cfg_path.write_text("n0 = 1000\n")
        assert main(["lemma-g", "--host", str(host_path), "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("input error: host has 64 < n0 = 1000")

    def test_build_hom_subcommand(self, small_world, tmp_path, capsys):
        _, h_path, cfg_path = small_world
        sizes_path = tmp_path / "sizes.json"
        sizes_path.write_text(json.dumps({"sizes": [16, 16, 16, 16]}))
        assert main(["build-hom", "--h", str(h_path), "--sizes", str(sizes_path),
                     "--chord", "1,3", "--config", str(cfg_path), "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["certificate_recheck"]["all_ok"]

    # A failed independent recheck is the program's fault: every command that
    # runs one writes its JSON and exits 1.
    @pytest.mark.parametrize("command", ["build-hom", "pipeline"])
    def test_failed_homomorphism_recheck_exits_1(self, small_world, tmp_path, capsys,
                                                 monkeypatch, command):
        import bandembed.cli

        monkeypatch.setattr(bandembed.cli, "verify_homomorphism_certificate",
                            lambda *args: {"all_ok": False})
        host_path, h_path, cfg_path = small_world
        sizes_path = tmp_path / "sizes.json"
        sizes_path.write_text(json.dumps({"sizes": [16, 16, 16, 16]}))
        argv = {"build-hom": ["--sizes", str(sizes_path), "--chord", "1,3"],
                "pipeline": ["--host", str(host_path)]}[command]
        assert main([command, "--h", str(h_path), *argv, "--config", str(cfg_path),
                     "--seed", "4"]) == 1
        out = json.loads(capsys.readouterr().out)
        if command == "build-hom":
            assert out["certificate_recheck"] == {"all_ok": False}
        else:
            assert out["failed_stage"] == "homomorphism"
            assert out["stages"][-1]["detail"]["error"] == (
                "BandembedError: independent certificate recheck failed: {'all_ok': False}")

    @pytest.mark.parametrize("command", ["embed", "pipeline"])
    def test_embedding_rejected_by_its_check_exits_1(self, small_world, tmp_path, capsys,
                                                     monkeypatch, command):
        import bandembed.cli
        from bandembed.embedder import Embedding

        monkeypatch.setattr(bandembed.cli, "embed_blowup", lambda h, *args, **kwargs:
                            Embedding([0] * h.n))
        host_path, h_path, cfg_path = small_world
        hom_path = tmp_path / "hom.json"
        hom_path.write_text(json.dumps({"f": [v % 4 for v in range(64)]}))
        argv = {"embed": ["--hom", str(hom_path)], "pipeline": ["--config", str(cfg_path)]}
        assert main([command, "--host", str(host_path), "--h", str(h_path),
                     *argv[command], "--seed", "4"]) == 1
        out = json.loads(capsys.readouterr().out)
        if command == "embed":
            assert out == {"phi": [0] * 64, "verified": False}
        else:
            assert out["failed_stage"] == "verify-embedding"

    def test_lemma_g_negative_demand_is_input_error(self, tmp_path, capsys):
        host_path, demand = tmp_path / "host.json", tmp_path / "demand.json"
        host_path.write_text(json.dumps(gen_super_regular_host(4, 50, d=0.5, seed=1).to_json()))
        demand.write_text(json.dumps({"sizes": [-1, 101, 50, 50, 50, 50, 50, 50]}))
        assert main(["lemma-g", "--host", str(host_path), "--demand", str(demand)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: demanded size -1 is negative at class 0\n"

    def test_build_hom_coin_logs(self, tmp_path, capsys):
        # n = 1024 is the smallest power of two whose schedule has drift blocks,
        # so the coin logs are not empty.
        target = gen_bandwidth_bipartite_h(1024, 2, 1, seed=3)
        h_path, sizes_path = tmp_path / "h.json", tmp_path / "sizes.json"
        h_path.write_text(json.dumps(target.to_json()))
        sizes_path.write_text(json.dumps({"sizes": [256] * 4}))
        argv = ["build-hom", "--h", str(h_path), "--sizes", str(sizes_path),
                "--chord", "1,3", "--seed", "2"]
        assert main(argv + ["--coins"]) == 0
        out = json.loads(capsys.readouterr().out)
        params = choose_h_parameters(1024, target.graph.max_degree(),
                                     target.ordering.claimed_bound, Config().xi, 2)
        hom = build_homomorphism(target.graph, target.ordering, target.bipartition,
                                 [256] * 4, (1, 3), params, seed=2)
        coin_logs = [d.coin_logs for d in hom.diagnostics]
        assert any(coin_logs)
        assert out["coin_logs"] == json.loads(json.dumps(coin_logs))
        assert main(argv) == 0
        assert "coin_logs" not in json.loads(capsys.readouterr().out)

    def test_montecarlo_subcommand(self, capsys):
        assert main(["montecarlo-balance", "--n", "256", "--delta", "2",
                     "--bandwidth", "1", "--k", "2", "--runs", "5", "--seed", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["runs"] == 5 and out["successes"] == 5

    def test_montecarlo_negative_runs(self, capsys):
        assert main(["montecarlo-balance", "--n", "64", "--runs", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: runs must be nonnegative, got -1\n"


    @pytest.mark.parametrize("k", [0, -1, 1])
    def test_montecarlo_needs_two_pairs(self, capsys, k):
        assert main(["montecarlo-balance", "--n", "64", "--runs", "1", "--k", str(k)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: --k must be at least 2, got {k}\n"


class TestPipelineFailurePaths:
    """One run per failing stage: the stage, the error type and the whole report are pinned."""

    # (k, size, bandwidth, seed, target vertices missing) -> failed stage, error type and
    # sha256 of the seconds-stripped report.
    CELLS = [
        ((4, 50, 10, 0, 1), "validate", "InvalidInputError",
         "f70c217e39052fb5f6648b1bfa925d3b14828cc126d26d064ce88aab8f5c75bc"),
        ((3, 40, 10, 0, 0), "homomorphism", "ParameterError",
         "56f39e1abd02fe48ed9c23b30e43439792418f14ab6ac64869cc6c9dd8f6ad10"),
        ((5, 40, 10, 0, 0), "redistribute", "RedistributionError",
         "4dfb2cfd69a5dc385009573f3d85ac5f29b115f14f0796913b3025106363e7eb"),
        ((3, 40, 5, 1, 0), "verify-partition", "BandembedError",
         "4abff89794cfa1317fc5c8a102b5de5ac1df8758c6a7f9682644325d1660c7c6"),
        ((3, 40, 5, 0, 0), "embed", "EmbeddingNotFoundError",
         "3c3a6069c1dd30a704885db18f09da020662e20b193c83ee7c29c4df92488b0c"),
    ]

    @pytest.mark.parametrize("shape, stage, error_type, digest", CELLS,
                             ids=["k{}-size{}-b{}-seed{}-missing{}".format(*c[0]) for c in CELLS])
    def test_failed_stage_is_pinned(self, shape, stage, error_type, digest):
        k, size, b, seed, missing = shape
        host = gen_super_regular_host(k, size, d=0.5, seed=seed)
        target = gen_bandwidth_bipartite_h(2 * k * size - missing, 3, b, seed=seed)
        report = run_full_pipeline(host, target, Config(), seed=seed)
        assert not report.ok and report.embedding is None
        assert report.failed_stage == stage
        assert report.stages[-1].name == stage and not report.stages[-1].ok
        assert report.stages[-1].detail["error"].split(":")[0] == error_type
        output = json.dumps(strip_seconds(report.to_json()), sort_keys=True, default=str)
        assert hashlib.sha256(output.encode()).hexdigest() == digest

    # (k, size, bandwidth, seed, target vertices missing) -> exit code: an input
    # error exits 1 even though the report is written; a certified negative exits 2.
    EXITS = [
        ((4, 50, 10, 0, 1), "validate", 1),
        ((3, 40, 10, 0, 0), "homomorphism", 1),
        ((3, 40, 5, 0, 0), "embed", 2),
    ]

    @pytest.mark.parametrize("shape, stage, code", EXITS,
                             ids=["k{}-size{}-b{}-seed{}-missing{}".format(*c[0]) for c in EXITS])
    def test_exit_code_follows_the_error_type(self, tmp_path, shape, stage, code):
        k, size, b, seed, missing = shape
        host = gen_super_regular_host(k, size, d=0.5, seed=seed)
        target = gen_bandwidth_bipartite_h(2 * k * size - missing, 3, b, seed=seed)
        host_path, h_path, out = tmp_path / "host.json", tmp_path / "h.json", tmp_path / "r.json"
        host_path.write_text(json.dumps(host.to_json()))
        h_path.write_text(json.dumps(target.to_json()))
        assert main(["pipeline", "--host", str(host_path), "--h", str(h_path),
                     "--seed", str(seed), "--json-out", str(out)]) == code
        assert json.loads(out.read_text())["failed_stage"] == stage
