"""Golden-vector and differential tests for the Steim decoders.

The corpus in ``tests/data/steim_golden.json`` pins encoded payloads to
known sample arrays (negative diffs, every Steim-2 dnib class, partial
final frames, capacity overflow).  The table-driven decoder
(``decode_records``, here over a batch of one record) must match both
the goldens and ``_decode_reference`` bit-for-bit — the reference is
the semantic anchor for the vectorised rewrite.
"""

import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SteimError
from repro.mseed import steim

_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "steim_golden.json").read_text()
)["cases"]


def _decode_one(payload: bytes, nsamples: int, level: int) -> np.ndarray:
    """``decode_records`` over a batch of one record."""
    return steim.decode_records(
        np.frombuffer(payload, np.uint8).reshape(1, -1),
        np.array([nsamples]), level)


def _decode_public(case, payload):
    fn = steim.decode_steim1 if case["level"] == 1 else steim.decode_steim2
    return fn(payload, case["nsamples"])


@pytest.mark.oracle
@pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: c["name"])
def test_golden_decode(case):
    payload = base64.b64decode(case["payload_b64"])
    expected = np.array(case["samples"], dtype=np.int32)
    got = _decode_public(case, payload)
    assert got.dtype == np.int32
    assert np.array_equal(got, expected)


@pytest.mark.oracle
@pytest.mark.parametrize("case", _GOLDEN, ids=lambda c: c["name"])
def test_golden_matches_reference_bit_for_bit(case):
    payload = base64.b64decode(case["payload_b64"])
    fast = _decode_one(payload, case["nsamples"], case["level"])
    ref = steim._decode_reference(payload, case["nsamples"], case["level"])
    assert fast.dtype == ref.dtype
    assert np.array_equal(fast, ref)
    assert fast.tobytes() == ref.tobytes()


def test_invalid_dnib_rejected_by_both():
    # Craft a frame whose word 3 claims nibble 10 with dnib 00 — an
    # illegal Steim-2 combination that both decoders must reject.
    header = 0
    nibbles = [0, 0, 0, 2] + [0] * 12
    for nib in nibbles:
        header = (header << 2) | nib
    words = [header, 0, 0, 0x00000005] + [0] * 12
    payload = np.array(words, dtype=">u4").tobytes()
    with pytest.raises(SteimError, match="dnib"):
        _decode_one(payload, 1, 2)
    with pytest.raises(SteimError, match="dnib"):
        steim._decode_reference(payload, 1, 2)


def test_truncated_payload_rejected_by_both():
    samples = np.arange(1000, dtype=np.int32)
    payload, k = steim.encode_steim2(samples, 8)
    short = payload[:steim.FRAME_BYTES]
    for decoder in (_decode_one, steim._decode_reference):
        with pytest.raises(SteimError, match="ended early"):
            decoder(short, k, 2)


def test_reverse_integration_mismatch_rejected_by_both():
    samples = np.arange(100, dtype=np.int32)
    payload, k = steim.encode_steim2(samples, 4)
    corrupt = bytearray(payload)
    corrupt[8:12] = np.array([999999], dtype=">u4").tobytes()  # XN slot
    for decoder in (_decode_one, steim._decode_reference):
        with pytest.raises(SteimError, match="reverse integration"):
            decoder(bytes(corrupt), k, 2)
    assert np.array_equal(
        steim._decode_reference(bytes(corrupt), k, 2,
                                check_integration=False),
        samples,
    )


def test_zero_samples():
    assert _decode_one(b"", 0, 2).size == 0
    assert steim._decode_reference(b"", 0, 2).size == 0


@pytest.mark.oracle
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=600),
    level=st.sampled_from([1, 2]),
    scale=st.sampled_from([1, 2, 7, 100, 20000, 4_000_000, 2**27]),
)
def test_roundtrip_fuzz_new_vs_reference(data, n, level, scale):
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    diffs = rng.integers(-scale, scale + 1, size=n)
    samples = np.clip(np.cumsum(diffs), -2**31 + 1, 2**31 - 1).astype(np.int32)
    encode = steim.encode_steim1 if level == 1 else steim.encode_steim2
    payload, k = encode(samples, max_frames=10)
    fast = _decode_one(payload, k, level)
    ref = steim._decode_reference(payload, k, level)
    assert np.array_equal(fast, samples[:k])
    assert fast.tobytes() == ref.tobytes()
