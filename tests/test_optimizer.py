"""Plan-shape tests: the compile-time half of lazy extraction."""

from repro.db.plan import logical as lg
from repro.db.plan.optimizer import split_conjuncts, and_together
from repro.seismology.queries import fig1_query1, fig1_query2
from repro.util.timefmt import from_ymd


def _find(node, kind):
    """All nodes of a type in a logical plan."""
    out = []
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, kind):
            out.append(current)
        stack.extend(current.children())
    return out


def test_split_and_rebuild_conjuncts():
    from repro.db import expr as ex
    from repro.db.types import DataType

    def lit(flag):
        e = ex.Literal(value=flag, dtype=DataType.BOOLEAN)
        return e

    tree = and_together([lit(True), lit(False), lit(True)])
    assert len(split_conjuncts(tree)) == 3
    assert and_together([]) is None


def test_lazy_plan_contains_lazy_fetch(lazy_wh):
    lazy_wh.query(fig1_query1())
    plan = lazy_wh.db.last_plan_optimized
    fetches = _find(plan, lg.LLazyFetch)
    assert len(fetches) == 1
    assert not _find(plan, lg.LScanAll)


def test_metadata_predicates_inside_meta_subplan(lazy_wh):
    lazy_wh.query(fig1_query1())
    fetch = _find(lazy_wh.db.last_plan_optimized, lg.LLazyFetch)[0]
    # The metadata sub-plan carries the station/channel filters: find at
    # least one filter over the files scan.
    meta_filters = _find(fetch.meta, lg.LFilter)
    assert meta_filters, "metadata predicates must be applied before fetch"
    scans = _find(fetch.meta, lg.LScan)
    assert {s.qualified_name for s in scans} == \
        {"mseed.files", "mseed.records"}


def test_time_bounds_extracted(lazy_wh):
    lazy_wh.query(fig1_query1())
    fetch = _find(lazy_wh.db.last_plan_optimized, lg.LLazyFetch)[0]
    lo, hi = fetch.time_bounds
    assert lo == from_ymd(2010, 1, 12, 22, 15)
    assert hi == from_ymd(2010, 1, 12, 22, 15, 2)


def test_column_pruning_reaches_extraction(lazy_wh):
    # Q2 never reads sample_time: extraction must not materialise it.
    lazy_wh.query(fig1_query2())
    fetch = _find(lazy_wh.db.last_plan_optimized, lg.LLazyFetch)[0]
    assert "sample_time" not in fetch.needed
    assert "sample_value" in fetch.needed


def test_scan_pruning(lazy_wh):
    lazy_wh.query("SELECT station FROM mseed.files WHERE network = 'NL'")
    scans = _find(lazy_wh.db.last_plan_optimized, lg.LScan)
    names = {c.name for c in scans[0].output}
    assert names == {"station", "network"}


def test_filter_pushed_below_join(lazy_wh):
    lazy_wh.query("""
        SELECT F.station FROM mseed.files AS F, mseed.records AS R
        WHERE F.file_location = R.file_location AND F.network = 'NL'""")
    plan = lazy_wh.db.last_plan_optimized
    joins = _find(plan, lg.LJoin)
    assert joins, "expected a join"
    filters_above = _find(plan, lg.LFilter)
    # The network filter must sit below the join (on the files side).
    below = _find(joins[0], lg.LFilter)
    assert below and all(f in below for f in filters_above)


def test_lazy_scan_without_metadata_degrades(lazy_wh):
    lazy_wh.query("SELECT COUNT(*) FROM mseed.data")
    plan = lazy_wh.db.last_plan_optimized
    assert _find(plan, lg.LScanAll)
    assert not _find(plan, lg.LLazyFetch)


def test_explain_mentions_rewrite_point(lazy_wh):
    text = lazy_wh.explain(fig1_query1())
    assert "LazyFetch" in text
    assert "run-time rewrite" in text
    assert "logical plan (as bound)" in text


def test_explain_statement_form(lazy_wh):
    result = lazy_wh.execute("EXPLAIN " + fig1_query2())
    assert "LazyFetch" in result.scalar()
