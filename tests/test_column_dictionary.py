"""Property tests: a VARCHAR column's dictionary survives derivation.

``take``, ``filter``, ``slice`` and ``concat`` carry a column's
``(codes, uniques)`` dictionary instead of dropping it, and a fanning-out
``take`` computes the small source's dictionary first.  Whatever the
operation, the carried dictionary must be exactly what
:meth:`Column.dictionary` computes from scratch over the derived values —
so ``factorize`` and ``memory_bytes`` read it without walking the rows,
and answer as if they had.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.db.column import Column
from repro.db.types import DataType

_SETTINGS = dict(max_examples=80, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

# NULLs, the empty string, one or many distinct values, a non-ASCII one.
_VALUES = st.lists(st.one_of(st.none(), st.sampled_from(
    ["", "a", "b", "NL/HGN/x.mseed", "é"])), max_size=24)


def _column(values, with_dict):
    col = Column.from_values(DataType.VARCHAR, values)
    if with_dict:
        col.dictionary()
    return col


def _assert_exact(derived: Column) -> None:
    """The carried dictionary is a fresh one's, and what reads it agrees."""
    assert derived._dict is not None
    codes, uniques = derived._dict
    fresh = Column(derived.dtype, derived.values.copy(), derived.valid)
    want_codes, want_uniques = fresh.dictionary()
    assert uniques == want_uniques
    np.testing.assert_array_equal(codes, want_codes)

    got, bound = derived.factorize()
    want, want_bound = fresh.factorize()
    assert bound == want_bound
    np.testing.assert_array_equal(got, want)

    nulls = 0 if derived.valid is None else derived.valid.nbytes
    assert derived.memory_bytes() == (len(derived) * 8
                                      + sum(map(len, want_uniques))
                                      + codes.nbytes + nulls)


@settings(**_SETTINGS)
@given(values=_VALUES, with_dict=st.booleans(), data=st.data())
def test_take_carries_or_builds_the_dictionary(values, with_dict, data):
    col = _column(values, with_dict)
    n = len(values)
    indices = np.array(data.draw(st.lists(
        st.integers(0, max(n - 1, 0)), max_size=3 * n if n else 0)),
        dtype=np.int64)
    derived = col.take(indices)
    assert derived.to_pylist() == [values[i] for i in indices]
    fans_out = len(indices) > n
    if with_dict or fans_out:
        _assert_exact(derived)
    else:
        assert derived._dict is None  # fan-in of a plain column: no work


@settings(**_SETTINGS)
@given(values=_VALUES, data=st.data())
def test_filter_and_slice_carry_the_dictionary(values, data):
    col = _column(values, True)
    n = len(values)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                       max_size=n)), dtype=bool)
    kept = col.filter(mask)
    assert kept.to_pylist() == [v for v, m in zip(values, mask) if m]
    _assert_exact(kept)

    start = data.draw(st.integers(0, n))
    stop = data.draw(st.integers(0, n))
    part = col.slice(start, stop)
    assert part.to_pylist() == values[start:stop]
    _assert_exact(part)


@settings(**_SETTINGS)
@given(parts=st.lists(_VALUES, min_size=1, max_size=3),
       shared=st.booleans())
def test_concat_merges_the_dictionaries(parts, shared):
    if shared:
        # Every part is the same column: the uniques are shared as is.
        parts = parts[:1] * 3
    columns = [_column(values, True) for values in parts]
    merged = Column.concat(columns)
    assert merged.to_pylist() == [v for values in parts for v in values]
    _assert_exact(merged)


def test_concat_with_a_plain_part_carries_nothing():
    merged = Column.concat([_column(["a", "b"], True),
                            _column(["b", None], False)])
    assert merged._dict is None
    assert merged.to_pylist() == ["a", "b", "b", None]


def test_fan_out_takes_the_small_sides_dictionary_once():
    """The join shape: an 18-row metadata column repeated per sample."""
    channels = Column.from_values(DataType.VARCHAR,
                                  ["BHE", "BHN", "BHZ"] * 6)
    wide = channels.take(np.repeat(np.arange(18), 1000))
    assert channels._dict is not None  # computed on the small source
    assert wide._dict[1] == ["BHE", "BHN", "BHZ"]
    _assert_exact(wide)
