import pytest

import spans
from ffgeom import circles, cli, experiments
from ffgeom.field import PrimeField


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == pytest.approx(4.0)
    assert spans.union_length([]) == 0.0


def test_self_time_with_nested_children():
    # 0: [0, 10] -> 1: [1, 4] -> 2: [2, 3]; 0 -> 3: [5, 6]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 6], [-1, 0, 1, 0]
    own = spans.self_times(starts, ends, parents)
    assert own == pytest.approx([10 - 3 - 1, 3 - 1, 1, 1])


def test_self_time_with_overlapping_children():
    # children overlap each other and spill past the parent: count the union once
    starts, ends, parents = [0, 1, 2, 8], [10, 4, 6, 12], [-1, 0, 0, 0]
    own = spans.self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10 - 5 - 2)


def test_recorder_nests_spans_and_counts():
    rec = spans.Recorder()
    inner = rec.wrap(lambda x: x + 1, "inner", lambda r, a, k, res: r.count("calls"))
    rec.set_item(7)
    with rec.span("outer"):
        assert inner(1) == 2
    assert list(rec.parent) == [-1, 0]
    assert list(rec.item) == [7, 7]
    assert [rec.names[i] for i in rec.name_id] == ["outer", "inner"]
    assert rec.counters["calls"] == 1


def test_tracer_installs_and_restores_every_wrapper():
    originals = (cli.HingeSweep, experiments.random_set, circles.intersect_circles,
                 PrimeField.__dict__["sqrt"])
    rec = spans.Recorder()
    with spans.Tracer(rec):
        assert cli.HingeSweep is not originals[0]
        PrimeField(13).sqrt(4)
    assert (cli.HingeSweep, experiments.random_set, circles.intersect_circles,
            PrimeField.__dict__["sqrt"]) == originals
    names = {rec.names[i] for i in rec.name_id}
    assert {"field.sqrt", "field.legendre"} <= names
    assert rec.counters["field.sqrt_calls"] == 1


def test_layer_metrics_cover_the_catalogue():
    rec = spans.Recorder()
    with spans.Tracer(rec):
        experiments.random_set(13, 2, 0.5, 0)
    values = rec.layer_metrics(1.0)
    expected = {n for layer in spans.LAYER_METRICS.values() for n, _ in layer}
    assert expected <= set(values)
    assert values["experiments.random_set_s"] > 0
    assert 0 < values["unattributed_s"] < 1.0


def test_layer_metrics_subtract_the_span_cost():
    # a solver span [0, 10] with three field spans of 1 s each: the solver
    # loses 3 caller costs and its own inside cost, each field span its inside cost
    rec = spans.Recorder()
    for name, start, end, parent in [("circles.solver", 0.0, 10.0, -1), ("field.inv", 1.0, 2.0, 0),
                                     ("field.inv", 3.0, 4.0, 0), ("field.sqrt", 5.0, 6.0, 0)]:
        rec.close(rec.open(name))
        rec.start[-1], rec.end[-1], rec.parent[-1] = start, end, parent
    values = rec.layer_metrics(10.0, cost=(0.5, 0.25))
    assert values["circles.solver_s"] == pytest.approx(10 - 3 - 3 * 0.5 - 0.25)
    assert values["field.busy_s"] == pytest.approx(3 * (1 - 0.25))
    assert values["trace.corrected_wall_s"] == pytest.approx(10 - 4 * 0.75)
    assert values["unattributed_s"] == pytest.approx(0.0)


def test_span_cost_is_positive_and_small():
    caller, inside = spans.span_cost(calls=2000, blocks=3)
    assert 0 < caller < 1e-3 and 0 < inside < 1e-3
