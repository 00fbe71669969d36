import argparse
import dataclasses
import hashlib
import json
import platform

import numpy as np
import pytest
import scipy

from zerosetkit import __version__, applications, cli, compression, graphs, randomzero
from zerosetkit._rng import RandomnessSpec
from zerosetkit.cli import run_command
from zerosetkit.errors import BadParams
from zerosetkit.graphs import VertexWeights, fractional_matching
from zerosetkit.metric import PointMeasure
from zerosetkit.verify import SCHEMA_VERSION

from conftest import limit_lp_runs


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def cube3_file(tmp_path):
    path = tmp_path / "cube3.json"
    code = run_command(["gen", "--family", "hamming_cube", "--dim", "3",
                        "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture
def c5_file(tmp_path):
    C = np.zeros((5, 5))
    for i in range(5):
        C[i, (i + 1) % 5] = C[(i + 1) % 5, i] = 1.0
    D = np.ones((5, 5)) - np.eye(5)
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"capacities": C.tolist(), "demands": D.tolist()}))
    return path


def test_gen_writes_schema_and_is_deterministic(tmp_path):
    # one command line twice: its provenance records the argv, --out included
    out = tmp_path / "a.json"
    argv = ["gen", "--family", "lp_cloud", "--n", "6", "--seed", "3", "--out", str(out)]
    assert run_command(argv) == 0
    oa = _read(out)
    assert run_command(argv) == 0
    ob = _read(out)
    assert oa == ob
    assert oa["schema_version"] == SCHEMA_VERSION
    assert "dist" in oa


def test_validate_good_and_bad(tmp_path, cube3_file):
    out = tmp_path / "v.json"
    assert run_command(["validate", "--in", str(cube3_file), "--out", str(out)]) == 0
    assert _read(out)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dist": [[0, 1], [2, 0]]}))
    assert run_command(["validate", "--in", str(bad)]) == 2


def test_unknown_flag_exits_one_without_files(tmp_path, cube3_file):
    out = tmp_path / "never.json"
    code = run_command(["validate", "--in", str(cube3_file), "--out", str(out),
                        "--bogus"])
    assert code == 1
    assert not out.exists()


def test_unknown_subcommand_exits_one():
    assert run_command(["frobnicate"]) == 1


def test_missing_file_exits_one(tmp_path):
    assert run_command(["validate", "--in", str(tmp_path / "nope.json")]) == 1


def test_malformed_json_exits_two(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{not json")
    assert run_command(["validate", "--in", str(bad)]) == 2


def test_embed_command(tmp_path, cube3_file):
    out = tmp_path / "emb.json"
    code = run_command(["embed", "--in", str(cube3_file), "--neg-type",
                        "--seed", "7", "--n-samples", "32", "--rounds", "3",
                        "--out", str(out)])
    assert code == 0
    rep = _read(out)
    assert rep["distortion"] >= 1.0
    assert len(rep["coords"]) == 8


@pytest.mark.parametrize("flags", [["--rounds", "0"], ["--rounds", "-1"], ["--n-samples", "0"]])
def test_embed_without_rounds_or_samples_exits_two(tmp_path, cube3_file, capsys, flags):
    out = tmp_path / "emb.json"
    assert run_command(["embed", "--in", str(cube3_file), "--neg-type", *flags,
                        "--out", str(out)]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_zeroset_command(tmp_path, cube3_file):
    out = tmp_path / "zs.json"
    code = run_command(["zeroset", "--in", str(cube3_file), "--tau", "2",
                        "--draws", "20", "--spread-pairs", "0,7",
                        "--out", str(out)])
    assert code == 0
    rep = _read(out)
    assert len(rep["draws"]) == 20
    assert all(rep["draws"])
    assert rep["spreading"][0]["pair"] == [0, 7]


def test_zeroset_close_pair_exits_two(cube3_file):
    assert run_command(["zeroset", "--in", str(cube3_file), "--tau", "2",
                        "--draws", "5", "--spread-pairs", "0,1"]) == 2


def test_sparsest_cut_command(tmp_path, c5_file):
    out = tmp_path / "sc.json"
    code = run_command(["sparsest-cut", "--in", str(c5_file), "--brute",
                        "--out", str(out)])
    assert code == 0
    rep = _read(out)
    assert abs(rep["sdp_value"] - 1.0 / 3.0) < 1e-4
    assert abs(rep["brute_opt"] - 1.0 / 3.0) < 1e-12
    assert rep["rounded_ratio"] >= rep["brute_opt"] - 1e-9
    # the 10 of 30 triangle rows whose middle point has an edge to the larger
    # end and is no more hops from the smaller: both neighbours of j for each
    # of the 5 pairs 2 hops apart; the LP optimum over them meets the other 20
    assert (rep["lp_solves"], rep["cuts"], rep["triangle_rows"]) == (1, 0, 10)


def test_iso_command(tmp_path, cube3_file):
    out = tmp_path / "iso.json"
    code = run_command(["iso", "--in", str(cube3_file), "--tau", "2",
                        "--t", "0.5", "--samples", "30", "--brute",
                        "--out", str(out)])
    assert code == 0
    rep = _read(out)
    assert rep["certificate"] <= rep["brute"] + 1e-12


def test_iso_without_samples_exits_two(tmp_path, cube3_file, capsys):
    out = tmp_path / "iso.json"
    assert run_command(["iso", "--in", str(cube3_file), "--tau", "2", "--t", "0.5",
                        "--samples", "0", "--out", str(out)]) == 2
    assert "n_samples must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_line_embed_command(tmp_path):
    rng = np.random.default_rng(1)
    cloud = tmp_path / "cloud.json"
    cloud.write_text(json.dumps({"coords": rng.standard_normal((16, 8)).tolist()}))
    out = tmp_path / "le.json"
    code = run_command(["line-embed", "--in", str(cloud), "--candidates", "10",
                        "--out", str(out)])
    assert code == 0
    assert _read(out)["p_average_distortion"] >= 1.0


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0


def test_lp_failure_exits_three(monkeypatch, cube3_file, capsys):
    # the stub stands in for an embedding whose unsaturated-pair extractor
    # reaches the fractional-matching LP; a failed solve must surface as a
    # solver error, not a traceback
    limit_lp_runs(monkeypatch, graphs)

    def embed_through_matching(*args, **kwargs):
        fractional_matching(3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3)))

    monkeypatch.setattr(cli, "euclidean_embed_pipeline", embed_through_matching)
    assert run_command(["embed", "--in", str(cube3_file)]) == 3
    assert "solver error: fractional matching LP failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, key",
    [
        (["validate"], "dist"),
        (["embed", "--neg-type"], "dist"),
        (["zeroset", "--tau", "1"], "dist"),
        (["iso", "--tau", "1", "--t", "0.5"], "dist"),
        (["sparsest-cut"], "capacities"),
        (["line-embed"], "coords"),
    ],
)
def test_missing_json_key_exits_two(tmp_path, capsys, argv, key):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run_command([argv[0], "--in", str(empty), *argv[1:]]) == 2
    assert f"no '{key}' key" in capsys.readouterr().err


_PAIR = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "argv, obj, message",
    [
        (["validate"], {"dist": "abc"}, "'dist' must hold numbers"),
        (["embed", "--neg-type"], {"dist": _PAIR, "measure": ["a", "b"]},
         "'measure' must hold numbers"),
        (["zeroset", "--tau", "1"], {"dist": [[0, 1], [1]]}, "'dist' must hold numbers"),
        (["iso", "--tau", "1", "--t", "0.5"], {"dist": _PAIR, "coords": [["x"], ["y"]]},
         "'coords' must hold numbers"),
        (["sparsest-cut"], {"capacities": _PAIR, "demands": "abc"},
         "'demands' must hold numbers"),
        (["line-embed"], {"coords": [["a", "b"]]}, "'coords' must hold numbers"),
        (["line-embed"], {"coords": [1, 2, 3]}, "'coords' must be a list of points"),
        (["embed", "--neg-type"], {"dist": _PAIR, "measure": [1, 2, 3]},
         "'measure' has 3 masses for 2 points"),
        (["validate"], {"dist": _PAIR, "coords": [[0.0], [1.0], [2.0]]},
         "'coords' has 3 rows for 2 points"),
        (["validate"], {"dist": _PAIR, "ids": 5}, "'ids' must be a list of point labels"),
    ],
)
def test_bad_json_field_exits_two(tmp_path, capsys, argv, obj, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run_command([argv[0], "--in", str(path), *argv[1:]]) == 2
    assert message in capsys.readouterr().err


def test_conclusion_violated_exits_four(monkeypatch, cube3_file, capsys):
    # an empty zero set is a broken guarantee of the sampler, not bad input
    monkeypatch.setattr(randomzero.GeneralZeroSetDistribution, "_masks_for", classmethod(
        lambda cls, requests: [np.zeros((len(i), d.n), dtype=bool) for d, i in requests]))
    assert run_command(["zeroset", "--in", str(cube3_file), "--tau", "2",
                        "--draws", "1"]) == 4
    assert "internal error: a zero-set draw came out empty" in capsys.readouterr().err


def test_good_graph_conclusion_exits_four(monkeypatch, cube3_file, capsys):
    # edge labels far above a unit level function break the good graph's
    # 4 sigma conclusion on the first edge, the loop (0, 0)
    real = randomzero.universal_compression

    def loud_labels(*args, **kwargs):
        out = real(*args, **kwargs)
        sigma = np.full(len(out.graph.edges), 1e9)
        return dataclasses.replace(out, graph=dataclasses.replace(out.graph, sigma=sigma))

    monkeypatch.setattr(randomzero, "universal_compression", loud_labels)
    monkeypatch.setattr(randomzero, "build_level_function",
                        lambda space, *args: randomzero.LevelFunction(np.ones(space.n)))
    assert run_command(["embed", "--in", str(cube3_file)]) == 4
    err = capsys.readouterr().err
    assert "internal error: 4 sigma exceeds the level function on edge (0, 0)" in err


def _embed_with_graph(monkeypatch, cube3_file, edges, lam):
    """``zerosetkit embed`` on cube3 with each compression's graph replaced by
    ``edges`` (zero edge labels) and every level function by ``lam``."""
    real = randomzero.universal_compression

    def stub_compression(*args, **kwargs):
        out = real(*args, **kwargs)
        graph = randomzero.ThresholdedGraph(out.graph.space, edges, sigma=np.zeros(len(edges)))
        return dataclasses.replace(out, graph=graph)

    monkeypatch.setattr(randomzero, "universal_compression", stub_compression)
    monkeypatch.setattr(randomzero, "build_level_function",
                        lambda *args: randomzero.LevelFunction(np.asarray(lam, dtype=float)))
    return run_command(["embed", "--in", str(cube3_file)])


def test_level_doubling_conclusion_exits_four(monkeypatch, cube3_file, capsys):
    # the level triples on the edge (1, 2)
    lam = [1.0, 1.0, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0]
    assert _embed_with_graph(monkeypatch, cube3_file, ((0, 1), (1, 2), (2, 3)), lam) == 4
    err = capsys.readouterr().err
    assert "internal error: level function more than doubles on edge (1,2)" in err


def test_under_separated_conclusion_exits_four(monkeypatch, cube3_file, capsys):
    # points 0-3 and 4-7 as two path components; a level far above every
    # image distance on the second, whose first pair is (4, 5)
    edges = ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7))
    lam = [1e-9] * 4 + [1e9] * 4
    assert _embed_with_graph(monkeypatch, cube3_file, edges, lam) == 4
    err = capsys.readouterr().err
    assert "internal error: same-component pair (4,5) under-separated in the image" in err


def test_zeroset_rejection_cap_exits_three(monkeypatch, cube3_file, capsys):
    monkeypatch.setattr(randomzero, "REJECTION_CAP", 3)
    monkeypatch.setattr(randomzero.GeneralZeroSetDistribution, "draw_raw",
                        lambda self, index, attempt=0: frozenset())
    assert run_command(["zeroset", "--in", str(cube3_file), "--tau", "2",
                        "--draws", "1"]) == 3
    assert "no nonempty zero set in 3 attempts" in capsys.readouterr().err


# -------------------------------------------------------------------------
# flag values that must end in a documented exit code
# -------------------------------------------------------------------------


@pytest.fixture
def grid3_file(tmp_path):
    path = tmp_path / "grid3.json"
    assert run_command(["gen", "--family", "grid", "--rows", "3", "--cols", "3",
                        "--out", str(path)]) == 0
    return path


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"coords": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    return path


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["zeroset", "--tau", "2", "--spread-pairs", "3"], 1, "expected I,J"),
        (["zeroset", "--tau", "2", "--spread-pairs", "a,b"], 1, "expected I,J"),
        (["zeroset", "--tau", "2", "--spread-pairs", "0,8", "--zeta", "0"], 2,
         "tau and zeta must be positive"),
        (["zeroset", "--tau", "2", "--draws", "-3"], 2, "n_samples must be >= 1"),
        (["zeroset", "--tau", "nan"], 2, "tau must be positive"),
        (["iso", "--tau", "nan", "--t", "0.5"], 2, "tau must be positive"),
        (["iso", "--tau", "2", "--t", "nan", "--brute"], 2, "t must be positive"),
    ],
)
def test_bad_zeroset_and_iso_flags_exit_with_their_code(tmp_path, grid3_file, capsys,
                                                        argv, code, message):
    out = tmp_path / "out.json"
    assert run_command([argv[0], "--in", str(grid3_file), *argv[1:], "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


_NAN = float("nan")
_NAN_ENTRIES = {
    "GeneralZeroSetDistribution": lambda space, mu, graph: randomzero.GeneralZeroSetDistribution(
        space, mu, _NAN, RandomnessSpec(0)),
    "iso_certificate": lambda space, mu, graph: applications.iso_certificate(
        space, mu, randomzero.GeneralZeroSetDistribution(space, mu, 1.0, RandomnessSpec(0)),
        _NAN, 10),
    "brute_isoperimetric": lambda space, mu, graph: applications.brute_isoperimetric(
        space, mu, _NAN),
    "build_proximity_graph": lambda space, mu, graph: graphs.build_proximity_graph(
        space, np.ones(space.n), _NAN),
    "nested_sublevel_nets": lambda space, mu, graph: compression.nested_sublevel_nets(
        graph, np.ones(space.n), _NAN),
    "_ball_ratio": lambda space, mu, graph: compression._ball_ratio(space, mu, _NAN),
}


@pytest.mark.parametrize("entry", sorted(_NAN_ENTRIES))
def test_nan_tau_or_t_is_bad_params(cube3, entry):
    # NaN passes a check written ``x <= 0``; each entry checks ``not x > 0``
    space = cube3.space
    graph = graphs.build_proximity_graph(space, np.ones(space.n), 1.0)
    with pytest.raises(BadParams, match="must be positive"):
        _NAN_ENTRIES[entry](space, PointMeasure(np.ones(space.n)), graph)


@pytest.mark.parametrize("flags, message", [
    (["--candidates", "0"], "n_candidates must be >= 1"),
    (["--p", "nan"], "require p, q >= 1"),
])
def test_bad_line_embed_flags_exit_two(tmp_path, square_file, capsys, flags, message):
    out = tmp_path / "out.json"
    assert run_command(["line-embed", "--in", str(square_file), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_zeroset_scores_the_sets_it_reports(monkeypatch, tmp_path):
    """``zeroset --spread-pairs`` scores the draws it writes out, one
    ``draw_raw`` per draw; the pinned report is the one written when each
    index was drawn twice, once for the report and once for the estimate."""
    cube4 = tmp_path / "cube4.json"
    assert run_command(["gen", "--family", "hamming_cube", "--dim", "4", "--out", str(cube4)]) == 0
    calls = []
    real = randomzero.GeneralZeroSetDistribution.draw_raw

    def counted(self, index, attempt=0):
        calls.append((index, attempt))
        return real(self, index, attempt)

    monkeypatch.setattr(randomzero.GeneralZeroSetDistribution, "draw_raw", counted)
    out = tmp_path / "zs.json"
    assert run_command(["zeroset", "--in", str(cube4), "--tau", "2", "--draws", "100",
                        "--spread-pairs", "0,15", "--out", str(out)]) == 0
    assert calls == [(index, 0) for index in range(100)]
    # the report as written before it carried its provenance, which names tmp_path
    report = _read(out)
    del report["provenance"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cab87fb47c0e403e22d1f81c8019d038c7ebaff39aa0942fddf6f73ba48e6b9a")


def test_reports_carry_their_provenance(tmp_path, cube3_file, capsys):
    """Every report names the package, Python, numpy and scipy versions and
    its command line; a command with a seed names it too."""
    out = tmp_path / "emb.json"
    argv = ["embed", "--in", str(cube3_file), "--neg-type", "--n-samples", "32", "--rounds", "3",
            "--seed", "5", "--out", str(out)]
    assert run_command(argv) == 0
    want = {"zerosetkit": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}
    assert _read(out)["provenance"] == {**want, "argv": argv, "seed": 5}
    # validate takes no seed, and prints its report when no --out is given
    assert run_command(["validate", "--in", str(cube3_file)]) == 0
    assert json.loads(capsys.readouterr().out)["provenance"] == {
        **want, "argv": ["validate", "--in", str(cube3_file)]}


def _sweep_cases(grid, square, cut):
    """Per subcommand run, its fixed arguments and its numeric flags with
    valid values; the flags together read every numeric option."""
    return [
        (["gen", "--family", "hamming_cube"], {"--dim": "3"}),
        (["gen", "--family", "grid"], {"--rows": "3", "--cols": "3", "--seed": "0"}),
        (["gen", "--family", "lp_cloud"], {"--n": "6", "--p": "2", "--dim": "2", "--seed": "0"}),
        (["gen", "--family", "diamond"], {"--level": "1"}),
        (["gen", "--family", "expander_path_metric"], {"--n": "8", "--degree": "3", "--seed": "0"}),
        (["validate", "--in", grid], {}),
        (["embed", "--in", grid], {"--theta": "0.5", "--s": "0.25", "--eps": "0.5",
                                   "--n-samples": "8", "--rounds": "2", "--seed": "0"}),
        (["embed", "--in", grid, "--neg-type"], {"--n-samples": "8", "--rounds": "2"}),
        (["zeroset", "--in", grid, "--spread-pairs", "0,8"],
         {"--tau": "2", "--zeta": "4", "--draws": "5", "--seed": "0"}),
        (["sparsest-cut", "--in", cut, "--brute"], {"--tol": "1e-6"}),
        (["iso", "--in", grid, "--brute"],
         {"--tau": "2", "--t": "0.5", "--samples": "5", "--seed": "0"}),
        (["line-embed", "--in", square], {"--p": "2", "--q": "2", "--candidates": "3",
                                          "--seed": "0"}),
        (["verify-suite"], {"--seed": "0"}),
    ]


def test_every_numeric_flag_value_maps_to_an_exit_code(tmp_path, grid3_file, square_file,
                                                       c5_file):
    """Each subcommand run succeeds with valid flags; each of its numeric
    flags, set in turn to nan, 0 and -1 with the others valid, ends in one of
    the documented exit codes 0-4 and raises nothing."""
    out = str(tmp_path / "out.json")
    seen = set()
    for head, flags in _sweep_cases(str(grid3_file), str(square_file), str(c5_file)):
        seen.add(head[0])
        valid = [a for item in flags.items() for a in item]
        assert run_command([*head, *valid, "--out", out]) == 0, head
        for key in flags:
            for value in ("nan", "0", "-1"):
                argv = [*head, *[a for k, v in flags.items()
                                  for a in (k, value if k == key else v)], "--out", out]
                assert run_command(argv) in range(5), argv
    parser = cli._build_parser()
    assert seen == set(next(action.choices for action in parser._actions
                            if isinstance(action, argparse._SubParsersAction)))
