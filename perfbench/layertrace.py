"""Outside-in layer trace: wrap zerosetkit's public functions where their
callers look them up, record one span per call, and derive the per-layer
metrics from the spans once the run ends.

A span is (name, start, end, parent).  Nothing in the package is edited: the
wrappers are installed by assigning module and class attributes and are
removed again when the ``installed()`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.optimize

from stats import Ratio, self_time
from zerosetkit import _rng, applications, descent, metric, randomzero

MB = 1024.0 * 1024.0


class Tracer:
    """Spans kept in memory; hooks keep the results they need for counters."""

    def __init__(self):
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self._stack: List[int] = []
        self.kept: Dict[str, list] = defaultdict(list)  # name -> keep(args, result)
        self.calls: Dict[str, list] = defaultdict(list)  # name -> (fn, args, kwargs)
        self.peaks_mb: Dict[str, List[float]] = defaultdict(list)

    def wrap(self, name: str, fn: Callable, keep: Optional[Callable] = None,
             peak: bool = False) -> Callable:
        spans, stack = self.spans, self._stack
        kept, calls = self.kept[name], self.calls[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if keep is not None:
                kept.append(keep(args, result))
            if peak:
                calls.append((fn, args, kwargs))
            return result

        return traced

    def measure_peaks(self) -> None:
        """Repeat each call recorded for a peak under tracemalloc, after the
        traced pass: tracing every allocation would double those spans."""
        for name, calls in self.calls.items():
            for fn, args, kwargs in calls:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    self.peaks_mb[name].append(tracemalloc.get_traced_memory()[1] / MB)
                finally:
                    tracemalloc.stop()

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, keep, peak in PATCHES:
                original = getattr(owner, attr)
                # a method a class inherits is patched on that class, then deleted
                saved.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self.wrap(name, original, keep=keep, peak=peak))
            yield self
        finally:
            for owner, attr, original, own in reversed(saved):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # ---------------------------------------------------------------------
    # derived metrics

    def busy_s(self, name: str) -> float:
        """Total duration of the outermost spans of one name."""
        total = 0.0
        for idx in self._index.get(name, ()):
            if not self._has_ancestor(idx, name):
                _n, start, end, _p = self.spans[idx]
                total += end - start
        return total

    def self_s(self, name: str) -> float:
        total = 0.0
        for idx in self._index.get(name, ()):
            _n, start, end, _p = self.spans[idx]
            kids = [(self.spans[k][1], self.spans[k][2]) for k in self._children.get(idx, ())]
            total += self_time(start, end, kids)
        return total

    def count(self, name: str) -> int:
        return len(self._index.get(name, ()))

    def _has_ancestor(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def finish(self) -> None:
        """Index the spans by name and by parent."""
        self._index: Dict[str, List[int]] = defaultdict(list)
        self._children: Dict[int, List[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            self._index[span[0]].append(idx)
            if span[3] >= 0:
                self._children[span[3]].append(idx)

    def per_layer(self) -> Dict[str, Tuple[float, str, str]]:
        """Every per-layer metric as name -> (value, unit, base note)."""
        self.finish()
        kept = self.kept
        s, n = self.busy_s, self.count

        fallback = Ratio(_fallbacks(kept["randomzero.pair_draw"]), n("randomzero.pair_draw"))
        raw = kept["randomzero.general_raw"]
        empty = Ratio(sum(raw), len(raw))
        pool = sum(kept["randomzero.duality"])
        finite = sum(kept["randomzero.good_graph"])
        loopless = sum(kept["compression.universal_compression"])
        lp_solves = sum(1 for idx in self._index.get("scipy.linprog", ())
                        if self.spans[self.spans[idx][3]][0] == "applications.sdp")

        def peak(name):
            return (max(self.peaks_mb[name], default=0.0), "MB",
                    "tracemalloc, largest call, repeated after the pass")

        sec, cnt = "s", "count"
        return {
            "rng.substream_calls": (n("rng.substream"), cnt, ""),
            "rng.substream_s": (s("rng.substream"), sec, ""),
            "randomzero.duality_s": (s("randomzero.duality"), sec, ""),
            "randomzero.duality_self_s": (self.self_s("randomzero.duality"), sec,
                                          "duality minus sampler builds and pair draws"),
            "randomzero.sampler_builds": (n("randomzero.sampler_build"), cnt, ""),
            "randomzero.sampler_build_s": (s("randomzero.sampler_build"), sec, ""),
            "randomzero.good_graph_s": (s("randomzero.good_graph"), sec, ""),
            "randomzero.pair_draws": (n("randomzero.pair_draw"), cnt, ""),
            "randomzero.pair_draw_s": (s("randomzero.pair_draw"), sec, ""),
            "randomzero.layered_calls": (n("randomzero.layered"), cnt, ""),
            "randomzero.pair_fallback_ratio": (fallback.value, "ratio",
                                               f"{fallback.num:g} fixed far pairs / "
                                               f"{fallback.base:g} pair draws"),
            "randomzero.pool_columns": (pool, cnt, "sum of n_columns over duality solves"),
            "randomzero.finite_level_points": (finite, cnt, "over all good graphs"),
            "randomzero.general_draws": (n("randomzero.general_draw"), cnt, ""),
            "randomzero.general_raw_attempts": (len(raw), cnt, ""),
            "randomzero.general_empty_ratio": (
                empty.value, "ratio", f"{empty.num:g} empty / {empty.base:g} raw attempts"),
            "randomzero.general_draw_s": (s("randomzero.general_draw"), sec, ""),
            "randomzero.spreading_s": (s("randomzero.spreading"), sec, ""),
            "compression.universal_compression_s": (
                s("compression.universal_compression"), sec, ""),
            "compression.loopless_edges": (loopless, cnt, "over all compressions"),
            "graphs.extract_unsaturated_pair_s": (s("graphs.extract_unsaturated_pair"), sec, ""),
            "descent.mixer_draws": (n("descent.mixer_draw"), cnt, ""),
            "descent.mixer_draw_s": (s("descent.mixer_draw"), sec, ""),
            "descent.frechet_s": (s("descent.frechet"), sec, ""),
            "metric.distortion_s": (s("metric.distortion"), sec, ""),
            "metric.validate_s": (s("metric.validate"), sec, ""),
            "metric.validate_peak_mb": peak("metric.validate"),
            "applications.iso_cert_s": (s("applications.iso_cert"), sec, ""),
            "applications.sdp_s": (s("applications.sdp"), sec, ""),
            "applications.sdp_lp_solves": (lp_solves, cnt, "1 + PSD cuts, summed over solves"),
            "applications.sdp_peak_mb": peak("applications.sdp"),
            "applications.brute_cut_s": (s("applications.brute_cut"), sec, ""),
            "applications.brute_iso_s": (s("applications.brute_iso"), sec, ""),
            "applications.sweep_s": (s("applications.sweep"), sec, ""),
            "applications.line_embed_s": (s("applications.line_embed"), sec, ""),
        }

    def dump(self, path, extra: dict) -> None:
        """Write every span once, at the end of the run."""
        names = sorted({span[0] for span in self.spans})
        code = {name: k for k, name in enumerate(names)}
        rows = [[code[name], start, end, parent] for name, start, end, parent in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": ["name", "start", "end", "parent"],
                       "names": names, "spans": rows}, fh, separators=(",", ":"))


def _pair_draw(args, drawn):
    sampler = args[0]
    return sampler.space, float(sampler.tau), drawn


def _fallbacks(draws) -> int:
    """How many separated-pair draws returned the fixed far pair: the
    lexicographically first pair at distance >= tau."""
    first = {}
    hits = 0
    for space, tau, (A, B) in draws:
        key = (id(space), tau)
        if key not in first:
            i, j = np.argwhere(np.triu(space.dist >= tau, k=1))[0]
            first[key] = (frozenset((int(i),)), frozenset((int(j),)))
        hits += (A, B) == first[key]
    return hits


def _n_columns(_args, dist) -> int:
    return dist.params["n_columns"]


def _finite_levels(_args, good) -> int:
    return int(np.isfinite(good.level.values).sum())


def _loopless_edges(_args, out) -> int:
    return len(out.graph.loopless_edges())


def _is_empty(_args, Z) -> bool:
    return not Z


# (owner, attribute, span name, what to keep from each call, repeat the call
# for its tracemalloc peak).  Each owner is where the caller looks the name up:
# descent calls duality_solve, good_graph_builder, separated_pipeline, frechet_embed and
# distortion through its own module globals; sdp_gl_solve imports linprog from
# scipy.optimize on every call; the benchmark calls the rest through their
# modules.
PATCHES = [
    (_rng, "substream", "rng.substream", None, False),
    (descent, "duality_solve", "randomzero.duality", _n_columns, False),
    (descent, "separated_pipeline", "randomzero.sampler_build", None, False),
    (descent, "good_graph_builder", "randomzero.good_graph", _finite_levels, False),
    (randomzero.SeparatedPairSampler, "draw", "randomzero.pair_draw", _pair_draw, False),
    (randomzero, "layered_pair_sets", "randomzero.layered", None, False),
    (randomzero, "universal_compression", "compression.universal_compression",
     _loopless_edges, False),
    (randomzero, "extract_unsaturated_pair", "graphs.extract_unsaturated_pair", None, False),
    (descent.MixedZeroSetDistribution, "draw", "descent.mixer_draw", None, False),
    (descent, "frechet_embed", "descent.frechet", None, False),
    (descent, "distortion", "metric.distortion", None, False),
    (randomzero.GeneralZeroSetDistribution, "draw", "randomzero.general_draw", None, False),
    (randomzero.GeneralZeroSetDistribution, "draw_raw", "randomzero.general_raw", _is_empty,
     False),
    (randomzero, "spreading_estimate", "randomzero.spreading", None, False),
    (metric, "validate_metric", "metric.validate", None, True),
    (applications, "validate_metric", "metric.validate", None, True),
    (applications, "iso_certificate", "applications.iso_cert", None, False),
    (applications, "sdp_gl_solve", "applications.sdp", None, True),
    (scipy.optimize, "linprog", "scipy.linprog", None, False),
    (applications, "brute_sparsest_cut", "applications.brute_cut", None, False),
    (applications, "brute_isoperimetric", "applications.brute_iso", None, False),
    (applications, "sweep_round_cut", "applications.sweep", None, False),
    (applications, "line_functional_embed", "applications.line_embed", None, False),
]
