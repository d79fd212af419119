"""Tests of the benchmark's own arithmetic: medians, percentiles, self time."""

import statistics

import pytest

from perfbench.stats import median, percentile, samples_beyond, self_times
from perfbench.trace import Tracer


def test_median_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([7.0]) == 7.0


def test_median_matches_statistics_module():
    values = [0.52, 0.61, 0.49, 0.75, 0.58, 0.66, 0.50, 0.71]
    assert median(values) == pytest.approx(statistics.median(values))


def test_percentile_interpolates_between_closest_ranks():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 50.0
    assert percentile(values, 50) == 30.0
    assert percentile(values, 90) == pytest.approx(46.0)   # rank 3.6
    assert percentile(values, 25) == 20.0


def test_percentile_of_unsorted_input_and_single_value():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([2.5], 90) == 2.5


def test_percentile_matches_statistics_inclusive_quartiles():
    values = [float(v) for v in (9, 2, 7, 4, 5, 1, 8, 3, 6, 10, 12)]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert percentile(values, 25) == pytest.approx(q1)
    assert percentile(values, 50) == pytest.approx(q2)
    assert percentile(values, 75) == pytest.approx(q3)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_p90():
    assert samples_beyond(100, 90) == 10   # rank 89.1: samples 90..99
    assert samples_beyond(101, 90) == 10   # rank 90 exactly
    assert samples_beyond(10, 90) == 1


def test_self_time_subtracts_children():
    spans = [("step", 0.0, 10.0, -1),
             ("forward", 1.0, 4.0, 0),
             ("select", 1.5, 2.0, 1),
             ("backward", 5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [("parent", 0.0, 10.0, -1),
             ("a", 2.0, 6.0, 0),
             ("b", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_ignores_child_time_outside_parent():
    spans = [("parent", 0.0, 4.0, -1),
             ("child", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([("leaf", 1.0, 1.25, -1)]) == [0.25]


def test_tracer_durations_filter_by_ancestor():
    tr = Tracer()
    tr.spans = [["training.step", 0.0, 10.0, -1],
                ["model.forward", 0.0, 4.0, 0],
                ["model.pem", 1.0, 3.0, 1],
                ["score.forward", 20.0, 22.0, -1],
                ["model.forward", 20.0, 22.0, 3],
                ["model.pem", 20.5, 21.0, 4]]
    assert tr.durations("model.pem") == [2.0, 0.5]
    assert tr.durations("model.pem", under="training.step") == [2.0]
    assert tr.durations("model.pem", under="score.forward") == [0.5]


def test_tracer_self_time_by_name_under_root():
    tr = Tracer()
    tr.spans = [["training.step", 0.0, 10.0, -1],
                ["model.forward", 0.0, 4.0, 0],
                ["model.pem", 1.0, 3.0, 1],
                ["autodiff.backward", 4.0, 9.5, 0]]
    selfs = tr.self_time_by_name("training.step")
    assert selfs == pytest.approx({"model.forward": 2.0, "model.pem": 2.0,
                                   "autodiff.backward": 5.5})


def test_tracer_records_nested_spans():
    tr = Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    names = [(s[0], s[3]) for s in tr.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[2] >= s[1] for s in tr.spans)
    outer = tr.spans[0]
    assert all(outer[1] <= s[1] and s[2] <= outer[2] for s in tr.spans[1:])
