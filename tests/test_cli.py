import json

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from zerosetkit import cli, graphs
from zerosetkit.cli import run_command
from zerosetkit.graphs import VertexWeights, fractional_matching
from zerosetkit.verify import SCHEMA_VERSION


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
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_command(["gen", "--family", "lp_cloud", "--n", "6", "--seed", "3",
                        "--out", str(a)]) == 0
    assert run_command(["gen", "--family", "lp_cloud", "--n", "6", "--seed", "3",
                        "--out", str(b)]) == 0
    oa, ob = _read(a), _read(b)
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


def test_iso_command(tmp_path, cube3_file):
    out = tmp_path / "iso.json"
    code = run_command(["iso", "--in", str(cube3_file), "--tau", "2",
                        "--t", "0.5", "--samples", "30", "--brute",
                        "--out", str(out)])
    assert code == 0
    rep = _read(out)
    assert rep["certificate"] <= rep["brute"] + 1e-12


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
    monkeypatch.setattr(
        graphs, "linprog",
        lambda *a, **k: OptimizeResult(success=False, status=2, message="forced failure"),
    )

    def embed_through_matching(*args, **kwargs):
        fractional_matching(3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3)))

    monkeypatch.setattr(cli, "euclidean_embed_pipeline", embed_through_matching)
    assert run_command(["embed", "--in", str(cube3_file)]) == 3
    assert "solver error: fractional matching LP failed" in capsys.readouterr().err
