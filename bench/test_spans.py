"""Tracer invariants: spans on pool threads keep the submitting span as
parent, and self time subtracts the union of the children's intervals."""

import types

import spans


def test_pool_spans_keep_their_parent():
    tracer = spans.Tracer("t")
    mod = types.SimpleNamespace(work=lambda i: i * i)
    tracer.wrap(mod, "work", "work")
    with tracer.span("outer"):
        with spans.ContextThreadPool(max_workers=2) as pool:
            assert list(pool.map(mod.work, range(6))) == [i * i for i in range(6)]
    tracer.unwrap_all()
    outer = next(s for s in tracer.spans if s.name == "outer")
    work = [s for s in tracer.spans if s.name == "work"]
    assert len(work) == 6
    assert all(s.parent == outer.id for s in work)
    assert {s.run for s in tracer.spans} == {"t"}
    assert not hasattr(mod.work, "__wrapped__")


def test_self_time_subtracts_covered_interval():
    parent = spans.Span(1, None, "p", 0.0, 10.0, "t", 0)
    children = [spans.Span(2, 1, "c", 1.0, 4.0, "t", 0),
                spans.Span(3, 1, "c", 3.0, 6.0, "t", 1),    # overlaps the first
                spans.Span(4, 1, "c", 8.0, 12.0, "t", 0)]   # runs past the parent
    assert spans.self_time(parent, children) == 10.0 - 5.0 - 2.0
