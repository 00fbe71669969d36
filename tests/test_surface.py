"""The package's public surface: ``__all__`` lists each name ``__init__``
imports from a submodule exactly once, and every listed name resolves, so
that deleting a function cannot leave a stale export behind; every zero-set
distribution draws through one hook; the separated-pair sampler is built
from its good graph alone and keeps no block of draws; ``_rng`` seeds
streams one way; importing the package, embedding and the cut
applications load numpy but none of the heavier libraries it uses, every
LP and the maximum matching solve through the HiGHS binding alone, which is
the one scipy.optimize uses, and a missing binding is named; and the
distribution's metadata names the package and its version, and its runtime
dependencies are numpy and scipy."""

import ast
import dataclasses
import importlib
import importlib.machinery
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zerosetkit
from zerosetkit import graphs


def _imported_names():
    tree = ast.parse(inspect.getsource(zerosetkit))
    return [alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names]


def test_all_lists_every_public_import_once_and_resolves():
    names = zerosetkit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(zerosetkit, name) is not None
    imported = [name for name in _imported_names() if not name.startswith("_")]
    assert len(imported) == len(set(imported))
    assert set(names) == set(imported) | {"__version__"}


def test_every_zeroset_distribution_draws_through_one_hook():
    """Each ``ZeroSetDistribution`` subclass in the package defines the mask
    hook ``_masks_for`` and neither ``draw`` nor a per-index ``_draw``: a
    draw is the base class's one-row view of ``draw_masks``, whose only
    argument is the indices."""
    from zerosetkit.randomzero import ZeroSetDistribution

    found = set()
    for info in pkgutil.iter_modules(zerosetkit.__path__, "zerosetkit."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if (issubclass(cls, ZeroSetDistribution) and cls is not ZeroSetDistribution
                    and cls.__module__ == info.name):
                found.add(name)
                assert "_masks_for" in vars(cls), name
                assert not {"draw", "_draw", "draw_masks"} & set(vars(cls)), name
    assert found == {"DualityDistribution", "GluedDistribution", "GeneralZeroSetDistribution",
                     "MixedZeroSetDistribution"}
    assert "_draw" not in vars(ZeroSetDistribution)
    assert list(inspect.signature(ZeroSetDistribution.draw_masks).parameters) == ["self",
                                                                                  "indices"]
    assert list(inspect.signature(ZeroSetDistribution._masks_for).parameters) == ["requests"]


def test_pair_sampler_reads_its_good_graph_alone():
    """The package has no a-priori beta cap nor its off-switch: beta comes
    from ``pipeline_scales`` or the caller.  The separated-pair sampler is
    built from its good graph and randomness, and a good graph holds what
    the sampler reads and nothing more."""
    from zerosetkit.randomzero import GoodGraph, SeparatedPairSampler

    modules = [zerosetkit] + [importlib.import_module(info.name)
                              for info in pkgutil.iter_modules(zerosetkit.__path__, "zerosetkit.")]
    for module in modules:
        source = inspect.getsource(module)
        for name in ("beta_cap", "BetaTooLarge", "enforce_beta_bound"):
            assert name not in source, (module.__name__, name)
    assert list(inspect.signature(SeparatedPairSampler.__init__).parameters) == [
        "self", "good", "randomness"]
    assert [field.name for field in dataclasses.fields(GoodGraph)] == [
        "compression", "level", "beta", "C", "tau"]


def test_pair_blocks_are_made_on_request_and_not_kept():
    """A block of component draws is what ``block`` returns, and nothing
    else: the package has no fixed stream block size, no kept block and no
    row lookup through one, and making a block leaves the sampler's
    attributes as they were."""
    from zerosetkit.randomzero import ComponentSeparatedSampler, _Block

    modules = [zerosetkit] + [importlib.import_module(info.name)
                              for info in pkgutil.iter_modules(zerosetkit.__path__, "zerosetkit.")]
    for module in modules:
        assert "STREAM_BLOCK" not in inspect.getsource(module), module.__name__
    assert not hasattr(ComponentSeparatedSampler, "_rows")
    assert _Block._fields == ("sides", "cross", "hit", "faults")
    space = zerosetkit.generate_instance("grid", {"rows": 3, "cols": 3}).space
    sampler = zerosetkit.separated_pipeline(
        space, zerosetkit.PointMeasure(np.ones(space.n)), zerosetkit.snowflake_embed(space, 0.5),
        zerosetkit.QuasiParams(0.25, 0.5), 2.0, 1.0, zerosetkit.RandomnessSpec(0))
    inner = sampler._inner
    before = dict(vars(inner))
    inner.block(range(100))
    sampler.draw_masks([3, 1])
    assert vars(inner).keys() == before.keys()
    assert all(vars(inner)[name] is value for name, value in before.items())


def test_rng_seeds_streams_one_way():
    """``_rng`` has no hand-seeded PCG64 in Python ints beside its array
    SeedSequence and PCG64: no seeded state, int pool or row-hash twin, and an
    opener holds no generator to hand out again."""
    from zerosetkit import _rng

    for name in ("seeded_state", "_generate_state", "_pool_of", "_RowHash"):
        assert not hasattr(_rng, name) and not hasattr(_rng.StreamOpener, name), name
    for spec in (zerosetkit.RandomnessSpec(0), zerosetkit.RandomnessSpec(7, ("duality", 3))):
        opener = spec.opener("zeroset")
        opener(0)
        assert not any(isinstance(value, (np.random.Generator, np.random.BitGenerator))
                       for value in vars(opener).values())


# Imported where they are first used, never by ``import zerosetkit``.
_HEAVY = ("scipy.optimize", "scipy.sparse", "networkx")

_IMPORT_WEIGHT = """\
import sys
import numpy as np
import zerosetkit, zerosetkit.cli
print(sorted(m for m in {heavy!r} if m in sys.modules))
from zerosetkit import EmbedConfig, PointMeasure, euclidean_embed_pipeline, generate_instance
for dim, config in ((3, EmbedConfig(n_samples=32, rounds=4)),
                    (6, EmbedConfig(n_samples=256, rounds=12))):
    space = generate_instance("hamming_cube", {{"dim": dim}}).space
    euclidean_embed_pipeline(space, PointMeasure(np.ones(space.n)), negative_type=True,
                             config=config)
    print(sorted(m for m in {heavy!r} if m in sys.modules))
"""


def _heavy_loaded(script: str) -> list:
    """Run ``script`` in a fresh process; each line it prints is the sorted
    list of the heavy modules loaded at that point."""
    src = str(Path(zerosetkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", script.format(heavy=_HEAVY)],
                         capture_output=True, text=True, env=env, timeout=300, check=True)
    return [ast.literal_eval(line) for line in out.stdout.splitlines()]


def test_import_loads_no_solver_or_graph_library():
    """A fresh process that imports the package and the CLI loads neither
    scipy.optimize, scipy.sparse nor networkx, and a cube3 embedding and then
    a cube6 embedding at the benchmark's 256 samples and 12 rounds load none
    of them either."""
    assert _heavy_loaded(_IMPORT_WEIGHT) == [[], [], []]


_SETUP_WEIGHT = """\
import sys
from zerosetkit import generate_instance, instance_from_json, instance_to_json
from zerosetkit.metric import _FAMILIES
for family in _FAMILIES:
    instance_from_json(instance_to_json(generate_instance(family, {{}}, seed=0).space))
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""


def test_instance_setup_loads_no_solver_or_graph_library():
    """Generating an instance of every family and round-tripping it through
    JSON, as a benchmark's set-up does, loads none of the heavy libraries:
    the diamond and expander hop distances are numpy's."""
    assert _heavy_loaded(_SETUP_WEIGHT) == [[]]


_CUT_WEIGHT = """\
import json, os, sys, tempfile
import numpy as np
from zerosetkit import PointMeasure, RandomnessSpec, generate_instance
from zerosetkit.applications import (SparsestCutInstance, brute_isoperimetric,
                                     brute_sparsest_cut, iso_certificate,
                                     line_functional_embed, sdp_gl_solve, sweep_round_cut)
from zerosetkit.cli import run_command
from zerosetkit.randomzero import general_zeroset_sampler
space = generate_instance("expander_path_metric", {{"n": 16, "degree": 3}}, seed=3023236695).space
inst = SparsestCutInstance((space.dist == 1.0).astype(float), 1.0 - np.eye(space.n))
sol = sdp_gl_solve(inst)
assert sol["cuts"] > 0 and sol["lp_solves"] > 1
sweep_round_cut(inst, sol["vectors"])
brute_sparsest_cut(inst)
mu = PointMeasure(np.ones(space.n))
brute_isoperimetric(space, mu, 2.0)
iso_certificate(space, mu, general_zeroset_sampler(space, mu, 2.0, RandomnessSpec(0)), 2.0, 8)
pts = np.random.default_rng(0).standard_normal((8, 4))
line_functional_embed(pts, PointMeasure(np.ones(8)), 2.0, 2.0, 5, RandomnessSpec(0))
print(sorted(m for m in {heavy!r} if m in sys.modules))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cut.json")
    with open(path, "w") as fh:
        json.dump(inst.to_json(), fh)
    assert run_command(["sparsest-cut", "--in", path, "--out", os.path.join(tmp, "out.json")]) == 0
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""


def test_sparsest_cut_loads_no_solver_or_graph_library():
    """The cut applications load neither scipy.optimize, scipy.sparse nor
    networkx: an SDP solve that adds triangle rows and cuts, sweep
    rounding, both brute-force oracles, an isoperimetric certificate and
    line functionals, and then the ``sparsest-cut`` command.  The SDP loads
    scipy's HiGHS binding alone."""
    assert _heavy_loaded(_CUT_WEIGHT) == [[], []]


_HIGHS_THEN_OPTIMIZE = """\
import sys
import numpy as np
from zerosetkit import applications, graphs
from zerosetkit.graphs import VertexWeights, fractional_matching
value, _phi = fractional_matching(3, [(0, 1), (1, 2), (0, 2)], VertexWeights(np.ones(3)))
assert abs(value - 1.5) < 1e-9
highs = graphs._highs()
print(sorted(m for m in {heavy!r} if m in sys.modules))
import scipy.optimize
assert abs(scipy.optimize.linprog(-np.ones(3), A_ub=np.eye(3), b_ub=np.ones(3)).fun + 3) < 1e-9
C = np.ones((4, 4)) - np.eye(4)
assert abs(applications.sdp_gl_solve(applications.SparsestCutInstance(C, C))["value"] - 1.0) < 1e-9
from scipy.optimize._highspy import _core
assert graphs._highs() is highs is _core is sys.modules["scipy.optimize._highspy._core"]
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""


def test_highs_binding_loaded_alone_is_the_one_scipy_optimize_uses():
    """A process whose fractional matching loads the HiGHS binding through
    ``graphs._highs`` before anything imports scipy.optimize keeps one
    binding: scipy.optimize imports afterwards, ``linprog`` solves through
    it, the SDP still solves, and the binding is the module scipy.optimize
    imports as ``scipy.optimize._highspy._core``."""
    before, after = _heavy_loaded(_HIGHS_THEN_OPTIMIZE)
    assert before == [] and "scipy.optimize" in after


_LP_WEIGHT = """\
import sys
import numpy as np
from zerosetkit import PointMeasure, generate_instance, snowflake_embed, verify_suite
from zerosetkit.compression import universal_compression
from zerosetkit.graphs import (VertexWeights, check_compatibility, extract_unsaturated_pair,
                               max_matching)
space = generate_instance("grid", {{"rows": 1, "cols": 64}}).space
out = universal_compression(space, PointMeasure(np.ones(64)), 2.0, 4.0, snowflake_embed(space, 0.5))
assert check_compatibility(out.graph, out.f, out.cert).ok
print(sorted(m for m in {heavy!r} if m in sys.modules))
assert all(check["passed"] for check in verify_suite("fast", 0)["checks"])
L = np.array([True, True, False, False])
L0, R0 = extract_unsaturated_pair(L, ~L, [(0, 2), (1, 3)], VertexWeights(np.array([1.0, 3, 2, 2])))
assert L0.tolist() == [False, True, False, False] and R0.tolist() == [False, False, True, False]
assert max_matching(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]) == 2
print(sorted(m for m in {heavy!r} if m in sys.modules))
"""


def test_lps_load_no_scipy_optimize():
    """Every LP of the package solves through the HiGHS binding alone, and
    hop distances are numpy's: a compatibility check of path64's
    compression, then the fast verify suite, whose checks solve the
    fractional matching, the column game and the SDP, an unsaturated-pair
    extraction over crossing edges and a maximum matching of a 5-cycle leave
    scipy.optimize, scipy.sparse and networkx unloaded."""
    assert _heavy_loaded(_LP_WEIGHT) == [[], []]


def test_highs_names_the_missing_binding(monkeypatch):
    """With no binding file where scipy's directory should hold it,
    ``_highs`` and every LP that needs it raise ``ImportError`` naming the
    module and the path."""
    monkeypatch.delitem(sys.modules, graphs._HIGHS, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    graphs._highs.cache_clear()
    path = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin),
                        "optimize", "_highspy", "_core.absent")
    try:
        with pytest.raises(ImportError, match=re.escape(path)) as info:
            graphs._highs()
        assert (info.value.name, info.value.path) == (graphs._HIGHS, path)
        with pytest.raises(ImportError, match=re.escape(path)):
            graphs.fractional_matching(2, [(0, 1)], graphs.VertexWeights(np.ones(2)))
    finally:
        graphs._highs.cache_clear()


def test_distribution_is_the_package_at_its_version():
    """``pyproject.toml`` names the distribution after the package it installs
    and the script it registers, at the version the package reports."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["name"] == "zerosetkit"
    assert project["version"] == zerosetkit.__version__
    assert project["scripts"] == {"zerosetkit": "zerosetkit.cli:main"}


def test_runtime_dependencies_are_numpy_and_scipy():
    """The package needs numpy and scipy alone; networkx is a test oracle."""
    tomllib = pytest.importorskip("tomllib")  # the standard library's from 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]

    def names(requirements):
        return sorted(re.match(r"[A-Za-z0-9_.-]+", r).group() for r in requirements)

    assert names(project["dependencies"]) == ["numpy", "scipy"]
    assert "networkx" in names(project["optional-dependencies"]["test"])
