import pytest

import spans


def span(name, start, end, parent=None):
    return [name, start, end, parent, 1]


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == pytest.approx(4.0)


def test_self_time_subtracts_union_of_overlapping_children():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),   # overlaps a: union of a and b is 5
        span("c", 8.0, 12.0, parent=0),  # runs past the root: only 2 s count
        span("leaf", 1.5, 2.0, parent=1),
        span("a", 20.0, 21.0),           # a second root-level "a"
    ]
    self_s = spans.self_times(tree)
    assert self_s["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_s["a"] == pytest.approx((3.0 - 0.5) + 1.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert self_s["c"] == pytest.approx(4.0)
    assert self_s["leaf"] == pytest.approx(0.5)


def test_tracer_nests_spans_and_closes_on_error():
    tracer = spans.Tracer()
    tracer.op = 7
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("inner"):
                raise RuntimeError
    (outer, inner) = tracer.spans
    assert inner[3] == 0 and outer[3] is None
    assert outer[2] >= inner[2] >= inner[1] >= outer[1]
    assert outer[4] == inner[4] == 7


def test_install_wraps_names_callers_look_up_and_undoes():
    import numpy as np

    import fracreg
    import fracreg.cli
    from fracreg import estimator, graph

    original = graph.build_graph
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, fracreg)
    try:
        assert estimator.build_graph is graph.build_graph is fracreg.cli.build_graph
        assert estimator.build_graph is not original
        x = np.linspace(0.0, 1.0, 40)
        samples = graph.SampleSet(points=x, responses=np.sin(x))
        estimator.fit(samples, 3, 0.2, graph.KernelSpec("indicator"))
    finally:
        uninstall()
    assert estimator.build_graph is original
    calls = tracer.calls()
    assert calls["estimator.fit"] == 1
    assert calls["graph.build_graph.brute"] == 1
    assert calls["graph.connectivity_check"] == 1
    assert calls["spectral.eigensolve.dense"] == 1
    assert tracer.counts["spectral.eigensolve.pairs"] == 3
    assert tracer.counts["graph.edges"] > 0
    fit_index = next(i for i, s in enumerate(tracer.spans) if s[0] == "estimator.fit")
    assert all(s[3] == fit_index for s in tracer.spans if s[0] != "estimator.fit")
