"""Property tests: a VARCHAR column is int32 codes plus sorted uniques.

The one representation of a string column is ``values`` — int32 codes —
indexing ``uniques``, a sorted object array of distinct ``str``.
``take``, ``filter`` and ``slice`` gather codes and share the source's
``uniques`` (which may then be a superset of the values present);
``concat`` merges the parts' uniques.  Whatever the operation, the
derived column must hold the right strings, keep ``uniques`` sorted and
distinct with every code in range, and answer ``factorize`` and
``memory_bytes`` from codes and uniques alone.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db.column import CODE_DTYPE, Column
from repro.db.types import DataType

_SETTINGS = dict(max_examples=80, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

# NULLs, the empty string, one or many distinct values, a non-ASCII one,
# and a trailing NUL next to the same string without it.
_VALUES = st.lists(st.one_of(st.none(), st.sampled_from(
    ["", "a", "b", "NL/HGN/x.mseed", "é", "AB", "AB\x00"])), max_size=24)


def _column(values):
    return Column.from_values(DataType.VARCHAR, values)


def _assert_invariant(derived: Column, expected: list) -> None:
    """Right strings; sorted distinct uniques; codes in range; factorize
    and memory_bytes read codes and uniques."""
    assert derived.to_pylist() == expected
    assert derived.values.dtype == CODE_DTYPE
    uniques = derived.uniques.tolist()
    assert uniques == sorted(set(uniques))
    assert all(isinstance(u, str) for u in uniques)
    if len(derived):
        assert 0 <= derived.values.min() and derived.values.max() < len(uniques)
    present = {v for v in expected if v is not None}
    assert present <= set(uniques)

    codes, bound = derived.factorize()
    assert bound == len(uniques)
    for code, value in zip(codes.tolist(), expected):
        assert (code == -1) if value is None else uniques[code] == value

    nulls = 0 if derived.valid is None else derived.valid.nbytes
    assert derived.memory_bytes() == (derived.values.nbytes
                                      + 8 * len(uniques)
                                      + sum(map(len, uniques)) + nulls)


@settings(**_SETTINGS)
@given(values=_VALUES, data=st.data())
def test_take_carries_or_builds_the_dictionary(values, data):
    col = _column(values)
    n = len(values)
    indices = np.array(data.draw(st.lists(
        st.integers(0, max(n - 1, 0)), max_size=3 * n if n else 0)),
        dtype=np.int64)
    derived = col.take(indices)
    _assert_invariant(derived, [values[i] for i in indices])
    assert derived.uniques is col.uniques  # shared, never rebuilt


@settings(**_SETTINGS)
@given(values=_VALUES, data=st.data())
def test_filter_and_slice_carry_the_dictionary(values, data):
    col = _column(values)
    n = len(values)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    kept = col.filter(mask)
    _assert_invariant(kept, [v for v, m in zip(values, mask) if m])

    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(0, n))
    _assert_invariant(col.slice(start, stop), values[start:stop])


@settings(**_SETTINGS)
@given(parts=st.lists(_VALUES, min_size=1, max_size=3),
       shared=st.booleans())
def test_concat_merges_the_dictionaries(parts, shared):
    if shared:
        # Every part is the same column: the uniques are shared as is.
        parts = parts[:1] * 3
    columns = [_column(values) for values in parts]
    merged = Column.concat(columns)
    _assert_invariant(merged, [v for values in parts for v in values])
    if shared:
        assert merged.uniques is columns[0].uniques


def test_concat_of_disjoint_uniques_merges_them():
    merged = Column.concat([_column(["b", "a"]), _column(["c", None]),
                            _column(["AB\x00", "AB"])])
    _assert_invariant(merged, ["b", "a", "c", None, "AB\x00", "AB"])
    assert merged.uniques.tolist() == ["", "AB", "AB\x00", "a", "b", "c"]


def test_fan_out_takes_the_small_sides_dictionary_once():
    """The join shape: an 18-row metadata column repeated per sample
    gathers codes only; the three strings are never copied."""
    channels = _column(["BHE", "BHN", "BHZ"] * 6)
    wide = channels.take(np.repeat(np.arange(18), 1000))
    assert wide.uniques is channels.uniques
    assert wide.uniques.tolist() == ["BHE", "BHN", "BHZ"]
    _assert_invariant(wide, [["BHE", "BHN", "BHZ"][i % 3]
                             for i in np.repeat(np.arange(18), 1000)])
