"""Tests of the harness's own arithmetic: self time, the percentile rule,
ratio bases, the quartile spread, and span bookkeeping in the tracer.

    python3 -m pytest -q perfbench/test_harness.py
"""

import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from stats import (  # noqa: E402
    Ratio,
    covered_length,
    highest_percentile,
    nearest_rank,
    percentile_label,
    quartile_spread,
    samples_beyond,
    self_time,
)


def test_self_time_subtracts_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (5.0, 6.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    assert self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)
    assert self_time(2.0, 4.0, [(5.0, 6.0)]) == pytest.approx(2.0)


def test_covered_length_of_nothing_is_zero():
    assert covered_length([]) == 0.0


def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50.0) == 50
    assert nearest_rank(values, 99.0) == 99
    assert nearest_rank(values, 100.0) == 100
    assert nearest_rank([7.0], 99.0) == 7.0


def test_percentile_rule_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(999) == 95.0  # p99 would leave only 9 beyond
    assert highest_percentile(10000) == 99.9
    assert highest_percentile(200) == 95.0
    assert highest_percentile(20) == 50.0
    assert highest_percentile(19) is None


def test_percentile_label():
    assert percentile_label(99.0) == "p99"
    assert percentile_label(99.9) == "p99.9"


def test_ratio_keeps_its_base():
    r = Ratio(3, 12)
    assert r.value == 0.25
    assert str(r) == "0.25 (3/12)"


def test_ratio_over_empty_base_reads_zero():
    assert Ratio(0, 0).value == 0.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 30.0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = quartile_spread(values)
    assert spread.num == pytest.approx(q3 - q1)
    assert spread.base == statistics.median(values)
    assert spread.value == pytest.approx((q3 - q1) / 14.5)


def test_tracer_records_parent_and_self_time():
    from layertrace import Tracer

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    outer()
    tracer.finish()
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    assert tracer.count("inner") == 2
    _name, start, end, _parent = tracer.spans[0]
    kids = sum(s[2] - s[1] for s in tracer.spans[1:])
    assert tracer.self_s("outer") == pytest.approx(end - start - kids)
    assert tracer.busy_s("outer") == pytest.approx(end - start)


def test_tracer_restores_every_patched_name():
    from layertrace import PATCHES, Tracer

    before = [(owner, attr, getattr(owner, attr), attr in vars(owner))
              for owner, attr, *_ in PATCHES]
    with Tracer().installed():
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original, _own in before)
    for owner, attr, original, own in before:
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own
