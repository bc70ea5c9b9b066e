"""Data-encoding registry for mSEED payloads.

mSEED declares the payload encoding in blockette 1000.  We implement the
encodings that occur in practice for waveform data: plain big-endian
integers and IEEE floats, plus Steim-1/Steim-2 (:mod:`repro.mseed.steim`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import UnsupportedEncodingError
from repro.mseed import steim

# SEED encoding format codes (blockette 1000, field 4).
ENC_ASCII = 0
ENC_INT16 = 1
ENC_INT32 = 3
ENC_FLOAT32 = 4
ENC_FLOAT64 = 5
ENC_STEIM1 = 10
ENC_STEIM2 = 11

_PLAIN_DTYPES: dict[int, np.dtype] = {
    ENC_INT16: np.dtype(">i2"),
    ENC_INT32: np.dtype(">i4"),
    ENC_FLOAT32: np.dtype(">f4"),
    ENC_FLOAT64: np.dtype(">f8"),
}

_NATIVE_DTYPES: dict[int, np.dtype] = {
    ENC_INT16: np.dtype(np.int32),
    ENC_INT32: np.dtype(np.int32),
    ENC_FLOAT32: np.dtype(np.float32),
    ENC_FLOAT64: np.dtype(np.float64),
}

_STEIM_LEVELS = {ENC_STEIM1: 1, ENC_STEIM2: 2}


@dataclass(frozen=True)
class EncodingInfo:
    """Static description of one encoding."""

    code: int
    name: str
    is_compressed: bool
    sample_bytes: float  # uncompressed bytes/sample; approximate for Steim


ENCODINGS: dict[int, EncodingInfo] = {
    ENC_INT16: EncodingInfo(ENC_INT16, "INT16", False, 2),
    ENC_INT32: EncodingInfo(ENC_INT32, "INT32", False, 4),
    ENC_FLOAT32: EncodingInfo(ENC_FLOAT32, "FLOAT32", False, 4),
    ENC_FLOAT64: EncodingInfo(ENC_FLOAT64, "FLOAT64", False, 8),
    ENC_STEIM1: EncodingInfo(ENC_STEIM1, "STEIM1", True, 4),
    ENC_STEIM2: EncodingInfo(ENC_STEIM2, "STEIM2", True, 4),
}


def encoding_name(code: int) -> str:
    """Human-readable name for an encoding code (``UNKNOWN(n)`` fallback)."""
    info = ENCODINGS.get(code)
    return info.name if info else f"UNKNOWN({code})"


def _plain_dtype(encoding: int) -> np.dtype:
    """The big-endian dtype of an uncompressed encoding."""
    dtype = _PLAIN_DTYPES.get(encoding)
    if dtype is None:
        raise UnsupportedEncodingError(
            f"encoding {encoding_name(encoding)} is not supported"
        )
    return dtype


def _too_short(nsamples: int, encoding: int) -> UnsupportedEncodingError:
    return UnsupportedEncodingError(
        f"payload too short for {nsamples} {encoding_name(encoding)} samples"
    )


def decode_payload(data: bytes, nsamples: int, encoding: int) -> np.ndarray:
    """Decode a record payload into a native-endian sample array (the
    per-record reference for :func:`decode_payloads`)."""
    if encoding == ENC_STEIM1:
        return steim.decode_steim1(data, nsamples)
    if encoding == ENC_STEIM2:
        return steim.decode_steim2(data, nsamples)
    dtype = _plain_dtype(encoding)
    needed = nsamples * dtype.itemsize
    if len(data) < needed:
        raise _too_short(nsamples, encoding)
    raw = np.frombuffer(data[:needed], dtype=dtype)
    return raw.astype(_NATIVE_DTYPES[encoding])


def decode_payloads(payloads: np.ndarray, nsamples: np.ndarray,
                    encoding: int) -> np.ndarray:
    """:func:`decode_payload` over many records of one encoding at once.

    ``payloads`` is a ``(records, payload_bytes)`` uint8 array and
    ``nsamples`` each record's sample count.  Returns the records'
    samples concatenated, and raises what ``decode_payload`` raises for
    the first record it rejects.  Steim payloads go through one
    :func:`~repro.mseed.steim.decode_records`, the others through one
    big-endian view of the payload bytes.
    """
    level = _STEIM_LEVELS.get(encoding)
    if level is not None:
        return steim.decode_records(payloads, nsamples, level)
    dtype = _plain_dtype(encoding)
    width = payloads.shape[1] // dtype.itemsize
    short = nsamples > width
    if short.any():
        raise _too_short(int(nsamples[short][0]), encoding)
    values = np.ascontiguousarray(
        payloads[:, :width * dtype.itemsize]).view(dtype)
    wanted = np.arange(width) < nsamples[:, None]
    return values[wanted].astype(_NATIVE_DTYPES[encoding])


def encode_payload(
    samples: np.ndarray, encoding: int, capacity_bytes: int,
    previous: int | None = None,
) -> tuple[bytes, int]:
    """Encode as many samples as fit into ``capacity_bytes``.

    Returns ``(payload, n_encoded)``.  The writer loops, starting a new
    record for the remainder, exactly like real digitiser software.
    """
    if encoding in (ENC_STEIM1, ENC_STEIM2):
        max_frames = capacity_bytes // steim.FRAME_BYTES
        if max_frames < 1:
            raise UnsupportedEncodingError("record too small for one Steim frame")
        encoder: Callable = (
            steim.encode_steim1 if encoding == ENC_STEIM1 else steim.encode_steim2
        )
        return encoder(samples, max_frames, previous)
    dtype = _plain_dtype(encoding)
    fit = min(len(samples), capacity_bytes // dtype.itemsize)
    if fit < 1:
        raise UnsupportedEncodingError("record too small for one sample")
    chunk = np.asarray(samples[:fit])
    if encoding in (ENC_INT16, ENC_INT32):
        info = np.iinfo(np.int16 if encoding == ENC_INT16 else np.int32)
        if chunk.min() < info.min or chunk.max() > info.max:
            raise UnsupportedEncodingError(
                f"sample out of range for {encoding_name(encoding)}"
            )
    return chunk.astype(dtype).tobytes(), fit
