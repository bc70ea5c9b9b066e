import threading
import time
import types

import tracer as tracer_mod
from layers import LAYERS
from tracer import BENCH_LAYER, LayerTotals, Tracer, covered, self_times


def span(span_id, parent, layer, start, end, *, pid=1, tid=1, name="f",
         counters=None, op=None):
    return (span_id, parent, layer, name, start, end, op, pid, tid, counters)


def test_covered_takes_the_union_of_overlapping_intervals():
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 3), (2, 5), (7, 12)], 0, 10) == 7   # clipped
    assert covered([], 0, 10) == 0
    assert covered([(2, 3), (2, 3)], 0, 10) == 1


def test_self_time_with_overlapping_children_and_two_threads():
    spans = [
        span(1, None, "api", 0.0, 10.0),
        # Two children on different threads overlap on [3, 4].
        span(2, 1, "db.exec", 1.0, 4.0, tid=1),
        span(3, 1, "etl.lazy", 3.0, 6.0, tid=2),
        span(4, 3, "mseed.steim", 3.5, 5.5, tid=2),
        # Same ids in another process never mix with these.
        span(1, None, "api", 0.0, 2.0, pid=2),
        span(2, 1, "db.exec", 0.5, 1.0, pid=2),
    ]
    own = self_times(spans)
    assert own[(1, 1)] == 10.0 - 5.0            # union [1, 6]
    assert own[(1, 2)] == 3.0
    assert own[(1, 3)] == 3.0 - 2.0
    assert own[(1, 4)] == 2.0
    assert own[(2, 1)] == 2.0 - 0.5
    totals = LayerTotals(spans)
    assert totals.self_s["api"] == 5.0 + 1.5
    assert totals.self_s["db.exec"] == 3.0 + 0.5
    assert totals.root_busy_s == {1: 10.0, 2: 2.0}


def test_coverage_is_the_share_of_op_time_inside_layers():
    spans = [
        span(1, None, BENCH_LAYER, 0.0, 10.0, op=1),
        span(2, 1, "api", 0.5, 9.5, op=1),
        span(3, 2, "db.exec", 1.0, 9.0, op=1, counters={"rows": 3}),
    ]
    totals = LayerTotals(spans)
    assert totals.coverage == 0.9
    assert totals.self_s["api"] == 1.0 and totals.self_s["db.exec"] == 8.0
    assert totals.counter("db.exec", "rows") == 3
    assert totals.counter("nope", "rows") == 0.0


def _toy_module():
    module = types.ModuleType("toy_layer_module")

    def leaf(x):
        time.sleep(0.002)
        return x + 1

    def stream(n):
        for i in range(n):
            time.sleep(0.001)
            yield i

    class Thing:
        def outer(self, x):
            return module.leaf(x) * 2

    class Child(Thing):
        pass

    module.leaf, module.stream = leaf, stream
    module.Thing, module.Child = Thing, Child
    import sys
    sys.modules[module.__name__] = module
    return module


def test_wrappers_nest_count_and_uninstall():
    module = _toy_module()
    tracer = Tracer()
    unresolved = tracer.install({
        "toy.leaf": [(module.__name__, "leaf",
                      lambda args, kwargs, result: {"seen": args[0]})],
        "toy.outer": [(module.__name__, "Thing.outer"),
                      (module.__name__, "Child.outer"),
                      (module.__name__, "Thing.renamed_away"),
                      ("no_such_module_xyz", "f")],
        "toy.stream": [(module.__name__, "stream")],
    })
    assert unresolved == [f"{module.__name__}:Thing.renamed_away",
                          "no_such_module_xyz:f"]
    with tracer.op("op", 7):
        assert module.Thing().outer(1) == 4
        assert list(module.stream(3)) == [0, 1, 2]
    other = threading.Thread(target=lambda: module.leaf(5))
    other.start()
    other.join()
    tracer.uninstall()
    assert "outer" not in module.Child.__dict__       # inherited again
    assert module.Thing().outer(1) == 4
    count = len(tracer.spans)
    module.leaf(1)
    assert len(tracer.spans) == count                 # really unwrapped

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[3], []).append(s)
    root, = by_name["op"]
    outer, = by_name["Thing.outer"]
    in_op, in_thread = by_name["leaf"]
    assert outer[1] == root[0] and in_op[1] == outer[0]
    assert in_op[6] == 7 and in_op[9] == {"seen": 1}
    assert in_thread[1] is None and in_thread[6] is None
    assert in_thread[8] != in_op[8]                   # another tid
    # One span per resumption of the generator: 3 items + the final stop.
    assert len(by_name["stream"]) == 4
    totals = LayerTotals(tracer.spans)
    assert totals.self_s["toy.stream"] >= 0.003
    assert 0.9 < totals.coverage <= 1.0


def test_span_files_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.op("op", 1):
        pass
    path = tmp_path / "spans.jsonl"
    tracer_mod.write_spans(path, tracer.spans)
    assert tracer_mod.read_spans(path) == tracer.spans


def test_every_layer_target_resolves_at_this_commit():
    tracer = Tracer()
    try:
        assert tracer.install(LAYERS) == []
    finally:
        tracer.uninstall()
