"""Steim-1 and Steim-2 waveform compression.

Steim coding is the reason the paper calls mSEED a "complex file format"
that flat-file query engines cannot handle: the payload is a sequence of
64-byte *frames* of difference-coded samples with per-word variable bit
widths, plus forward/reverse integration constants for self-validation.

Frame layout (16 big-endian 32-bit words):

* word 0 — sixteen 2-bit *nibbles*, one per word of the frame (nibble 0
  describes word 0 itself and is always ``00``);
* frame 0 additionally stores the forward integration constant ``X0``
  (first sample) in word 1 and the reverse constant ``XN`` (last sample)
  in word 2, both flagged with nibble ``00``.

Steim-1 nibbles: ``01`` = four 8-bit differences, ``10`` = two 16-bit,
``11`` = one 32-bit.  Steim-2 keeps ``01`` and re-purposes ``10``/``11``
with a 2-bit *dnib* in the word's top bits:

=======  ====  ===================
nibble   dnib  payload
=======  ====  ===================
``10``   01    one 30-bit difference
``10``   10    two 15-bit differences
``10``   11    three 10-bit differences
``11``   00    five 6-bit differences
``11``   01    six 5-bit differences
``11``   10    seven 4-bit differences
=======  ====  ===================

Decoding reconstructs ``x[0] = X0`` and ``x[i] = x[i-1] + d[i]``; the first
difference is carried for cross-record continuity but never used for
reconstruction.  Decoding verifies the reverse integration constant.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SteimError

FRAME_BYTES = 64
WORDS_PER_FRAME = 16

# Steim-2 cannot represent differences outside the 30-bit two's-complement
# range; real digitisers never produce them, and our synthesiser stays well
# inside.  Encoders raise SteimError beyond this.
STEIM2_MAX_DIFF = (1 << 29) - 1
STEIM2_MIN_DIFF = -(1 << 29)

# (nibble, dnib, count, bit width) rows for Steim-2, in *decreasing* count
# order so the greedy encoder prefers the densest packing that fits.
_STEIM2_CLASSES = (
    (3, 2, 7, 4),
    (3, 1, 6, 5),
    (3, 0, 5, 6),
    (1, None, 4, 8),
    (2, 3, 3, 10),
    (2, 2, 2, 15),
    (2, 1, 1, 30),
)

_STEIM1_CLASSES = (
    (1, None, 4, 8),
    (2, None, 2, 16),
    (3, None, 1, 32),
)


def _fits(values: np.ndarray, bits: int) -> bool:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return bool(values.min() >= lo and values.max() <= hi)


def _sign_extend(values: np.ndarray, bits: int) -> np.ndarray:
    mask = np.uint32((1 << bits) - 1)
    sign = np.uint32(1 << (bits - 1))
    trimmed = values.astype(np.uint32) & mask
    return ((trimmed ^ sign).astype(np.int64) - int(sign)).astype(np.int32)


def _pack_word(diffs: np.ndarray, bits: int, dnib: int | None) -> int:
    """Pack ``len(diffs)`` differences of ``bits`` width into one 32-bit word."""
    word = 0
    count = len(diffs)
    mask = (1 << bits) - 1
    payload_bits = bits * count
    for value in diffs:
        word = (word << bits) | (int(value) & mask)
    if dnib is not None:
        word |= dnib << 30
    elif payload_bits < 32:
        # Steim-1 aligns payloads to the low end; 4x8 and 2x16 fill the word,
        # 1x32 fills it too, so nothing to do — kept for clarity.
        pass
    return word & 0xFFFFFFFF


class _FrameAssembler:
    """Accumulates coded words into frames, maintaining nibble headers."""

    def __init__(self, max_frames: int) -> None:
        self.max_frames = max_frames
        self.frames: list[list[int]] = []
        self.nibbles: list[list[int]] = []
        self._new_frame()
        # Reserve X0/XN slots in frame 0 (filled at the end).
        self.frames[0].extend([0, 0])
        self.nibbles[0].extend([0, 0])

    def _new_frame(self) -> None:
        self.frames.append([])
        self.nibbles.append([0])  # nibble 0 describes word 0 itself

    @property
    def _room_in_frame(self) -> bool:
        return len(self.frames[-1]) < WORDS_PER_FRAME - 1  # minus word 0

    def has_room(self) -> bool:
        return self._room_in_frame or len(self.frames) < self.max_frames

    def add_word(self, word: int, nibble: int) -> None:
        if not self._room_in_frame:
            if len(self.frames) >= self.max_frames:
                raise SteimError("frame capacity exceeded")
            self._new_frame()
        self.frames[-1].append(word)
        self.nibbles[-1].append(nibble)

    def finish(self, x0: int, xn: int) -> bytes:
        self.frames[0][0] = int(np.int64(x0)) & 0xFFFFFFFF
        self.frames[0][1] = int(np.int64(xn)) & 0xFFFFFFFF
        blob = bytearray()
        for words, nibbles in zip(self.frames, self.nibbles):
            padded_words = words + [0] * (WORDS_PER_FRAME - 1 - len(words))
            padded_nibbles = nibbles + [0] * (WORDS_PER_FRAME - len(nibbles))
            header = 0
            for nib in padded_nibbles:
                header = (header << 2) | nib
            frame = [header] + padded_words
            blob.extend(np.array(frame, dtype=">u4").tobytes())
        return bytes(blob)


def _encode(samples: np.ndarray, max_frames: int, classes, level: int,
             previous: int | None) -> tuple[bytes, int]:
    samples = np.ascontiguousarray(samples, dtype=np.int64)
    if samples.size == 0:
        raise SteimError("cannot encode an empty sample array")
    if samples.min() < np.iinfo(np.int32).min or samples.max() > np.iinfo(np.int32).max:
        raise SteimError("Steim input must fit in int32")
    diffs = np.empty(samples.size, dtype=np.int64)
    diffs[0] = samples[0] - (previous if previous is not None else samples[0])
    np.subtract(samples[1:], samples[:-1], out=diffs[1:])
    if level == 2 and (diffs.min() < STEIM2_MIN_DIFF or diffs.max() > STEIM2_MAX_DIFF):
        raise SteimError(
            "difference outside Steim-2 30-bit range; data not Steim-2 encodable"
        )

    assembler = _FrameAssembler(max_frames)
    pos = 0
    total = samples.size
    while pos < total and assembler.has_room():
        packed = False
        for nibble, dnib, count, bits in classes:
            chunk = diffs[pos : pos + count]
            if len(chunk) == count and _fits(chunk, bits):
                assembler.add_word(_pack_word(chunk, bits, dnib), nibble)
                pos += count
                packed = True
                break
        if packed:
            continue
        # Tail shorter than the smallest full class: fall back to the widest
        # single/duo classes that can hold the remaining few differences.
        for nibble, dnib, count, bits in reversed(classes):
            chunk = diffs[pos : pos + count]
            if len(chunk) == count and _fits(chunk, bits):
                assembler.add_word(_pack_word(chunk, bits, dnib), nibble)
                pos += count
                packed = True
                break
        if not packed:
            # Remaining tail does not fill any class exactly (e.g. 3 diffs
            # needing 8 bits each at the end of a Steim-1 stream): emit the
            # widest class one difference at a time.
            nibble, dnib, count, bits = classes[-1]
            chunk = diffs[pos : pos + 1]
            if not _fits(chunk, bits):
                raise SteimError("difference does not fit widest Steim class")
            assembler.add_word(_pack_word(chunk, bits, dnib), nibble)
            pos += 1
    encoded = pos
    blob = assembler.finish(int(samples[0]), int(samples[encoded - 1]))
    return blob, encoded


def encode_steim1(samples: np.ndarray, max_frames: int,
                  previous: int | None = None) -> tuple[bytes, int]:
    """Encode ``samples`` into at most ``max_frames`` Steim-1 frames.

    Returns ``(payload, n_encoded)`` — the caller continues a new record
    with the remaining samples when ``n_encoded < len(samples)``.
    """
    return _encode(samples, max_frames, _STEIM1_CLASSES, 1, previous)


def encode_steim2(samples: np.ndarray, max_frames: int,
                  previous: int | None = None) -> tuple[bytes, int]:
    """Encode ``samples`` into at most ``max_frames`` Steim-2 frames."""
    return _encode(samples, max_frames, _STEIM2_CLASSES, 2, previous)


def _frame_words(data: bytes) -> np.ndarray:
    """A frame blob as ``(frames, 16)`` native uint32 words."""
    if len(data) % FRAME_BYTES:
        raise SteimError(f"Steim payload length {len(data)} not a frame multiple")
    raw = np.frombuffer(data, dtype=">u4").astype(np.uint32)
    return raw.reshape(-1, WORDS_PER_FRAME)


def _decode_words(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Split a frame blob into flat word/nibble arrays (word 0s masked out)."""
    frames = _frame_words(data)
    headers = frames[:, 0]
    shifts = np.arange(15, -1, -1, dtype=np.uint32) * 2
    nibbles = (headers[:, None] >> shifts[None, :]) & 3
    return frames, nibbles.astype(np.uint8)


def _class_table(level: int, flat_words: np.ndarray,
                 flat_nibs: np.ndarray) -> list[tuple[np.ndarray, int, int]]:
    """Partition words into ``(selector_mask, count, bits)`` decode classes."""
    classes: list[tuple[np.ndarray, int, int]] = []
    classes.append((flat_nibs == 1, 4, 8))
    if level == 1:
        classes.append((flat_nibs == 2, 2, 16))
        classes.append((flat_nibs == 3, 1, 32))
        return classes
    dnib = (flat_words >> np.uint32(30)).astype(np.uint8)
    if np.any((flat_nibs == 2) & (dnib == 0)) or np.any((flat_nibs == 3) & (dnib == 3)):
        raise SteimError("invalid Steim-2 dnib combination")
    classes.append(((flat_nibs == 2) & (dnib == 1), 1, 30))
    classes.append(((flat_nibs == 2) & (dnib == 2), 2, 15))
    classes.append(((flat_nibs == 2) & (dnib == 3), 3, 10))
    classes.append(((flat_nibs == 3) & (dnib == 0), 5, 6))
    classes.append(((flat_nibs == 3) & (dnib == 1), 6, 5))
    classes.append(((flat_nibs == 3) & (dnib == 2), 7, 4))
    return classes


def _decode_reference(data: bytes, nsamples: int, level: int, *,
                      check_integration: bool = True) -> np.ndarray:
    """The pre-vectorised decoder, kept bit-for-bit as the differential
    oracle's reference: the table-driven :func:`decode_records` below,
    which extraction runs, must agree with it on every payload.  Only
    the per-record reader reaches it, through :func:`decode_steim1/2
    <decode_steim1>`."""
    if nsamples == 0:
        return np.zeros(0, dtype=np.int32)
    frames, nibbles = _decode_words(data)
    if frames.shape[0] == 0:
        raise SteimError("empty Steim payload for nonzero sample count")
    x0 = int(np.int32(frames[0, 1]))
    xn = int(np.int32(frames[0, 2]))

    # Vectorised decode: flatten words in stream order, mask out the frame
    # headers and the X0/XN slots (their nibbles are 00 anyway), compute the
    # per-word difference counts, then scatter each (nibble, dnib) class's
    # bit fields into their positions in one shot.
    flat_words = frames.reshape(-1)
    flat_nibs = nibbles.reshape(-1).copy()
    word_index = np.arange(flat_words.size) % WORDS_PER_FRAME
    flat_nibs[word_index == 0] = 0
    flat_nibs[1:3] = 0  # X0 / XN in frame 0

    classes = _class_table(level, flat_words, flat_nibs)
    counts = np.zeros(flat_words.size, dtype=np.int64)
    for sel, count, _bits in classes:
        counts[sel] = count
    out_start = np.cumsum(counts) - counts
    produced = int(counts.sum())
    if produced < nsamples:
        raise SteimError(
            f"Steim payload ended early: {produced} of {nsamples} samples"
        )
    flat = np.zeros(produced, dtype=np.int32)
    for sel, count, bits in classes:
        if not np.any(sel):
            continue
        words = flat_words[sel]
        starts = out_start[sel]
        mask = np.uint32((1 << bits) - 1)
        for j in range(count):
            shift = np.uint32((count - 1 - j) * bits)
            flat[starts + j] = _sign_extend((words >> shift) & mask, bits)
    series = np.empty(nsamples, dtype=np.int64)
    series[0] = x0
    if nsamples > 1:
        np.cumsum(flat[1:nsamples].astype(np.int64), out=series[1:])
        series[1:] += x0
    if check_integration and int(series[-1]) != xn:
        raise SteimError(
            f"reverse integration constant mismatch: got {int(series[-1])}, "
            f"expected {xn}"
        )
    return series.astype(np.int32)


def _build_unpack_table(level: int):
    """Precompute whole-stream unpack LUTs, indexed by a per-word class key
    (the nibble for Steim-1; ``nibble * 4 + dnib`` for Steim-2, with nibbles
    0/1 collapsed to 0/1 since their payload carries no dnib):

    * ``counts[key]``   — differences per word (-1 marks an invalid dnib);
    * ``shifts[key]``   — right-shift per difference slot, zero padded;
    * ``masks[key]``    — payload mask per difference slot (0 pads);
    * ``signs[key]``    — sign bit per slot, as wrapping int32.

    Decoding gathers these per word, so the entire payload unpacks with a
    handful of array ops and no per-class Python loop.
    """
    classes = _STEIM1_CLASSES if level == 1 else _STEIM2_CLASSES
    n_keys = 4 if level == 1 else 16
    width = max(count for _, _, count, _ in classes)
    counts = np.full(n_keys, -1, dtype=np.int64)
    shifts = np.zeros((n_keys, width), dtype=np.uint32)
    masks = np.zeros((n_keys, width), dtype=np.uint32)
    signs = np.zeros((n_keys, width), dtype=np.uint32)
    counts[0] = 0
    for nibble, dnib, count, bits in classes:
        key = nibble if level == 1 or nibble == 1 else nibble * 4 + dnib
        counts[key] = count
        shifts[key, :count] = np.arange(count - 1, -1, -1, dtype=np.uint32) * bits
        masks[key, :count] = (1 << bits) - 1
        signs[key, :count] = 1 << (bits - 1)
    return counts, shifts, masks, signs.view(np.int32), width


_UNPACK_TABLES = {1: _build_unpack_table(1), 2: _build_unpack_table(2)}


# Payload bytes unpacked per pass.  The pass holds a few arrays of seven
# 4-byte slots per payload word, so this bounds its scratch memory to
# some tens of times the block, whatever the size of the file.
_BLOCK_BYTES = 1 << 18


def decode_records(payloads: np.ndarray, nsamples: np.ndarray,
                   level: int) -> np.ndarray:
    """Decode the Steim payloads of many records in one pass.

    ``payloads`` is a ``(records, payload_bytes)`` uint8 array and
    ``nsamples`` gives each record's sample count.  Returns every
    record's samples, concatenated in record order: for each record
    exactly what ``_decode_reference`` returns, and the ``SteimError``
    it raises for the first record it rejects (a payload that is not
    whole frames, an invalid dnib, fewer differences than samples, a
    last sample other than XN).  A record of 0 samples yields nothing
    and is not checked, as there.

    Per block of records holding up to :data:`_BLOCK_BYTES` of payload
    (one block for a typical file), one unpack-LUT pass over their
    frames, then one cumulative sum, seeded at each record's start with
    its X0, rebuilds the samples.
    """
    nsamples = np.asarray(nsamples, dtype=np.int64)
    live = nsamples > 0
    payloads, nsamples = payloads[live], nsamples[live]
    width = payloads.shape[1]
    if len(nsamples) and (width == 0 or width % FRAME_BYTES):
        raise SteimError(
            f"Steim payload length {width} not a frame multiple" if width
            else "empty Steim payload for nonzero sample count")
    step = max(1, _BLOCK_BYTES // max(width, 1))
    blocks = [_decode_live(payloads[lo:lo + step].view(">u4").astype(np.uint32),
                           nsamples[lo:lo + step], level)
              for lo in range(0, len(nsamples), step)]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int32)


def _decode_live(words: np.ndarray, nsamples: np.ndarray,
                 level: int) -> np.ndarray:
    """Decode ``(records, words)`` payload words of records that each
    have samples; the one table-driven decoder."""
    records, width = words.shape
    headers = words[:, ::WORDS_PER_FRAME]
    shifts = np.arange(30, -1, -2, dtype=np.uint32)
    nibs = ((headers[:, :, None] >> shifts) & np.uint32(3)).reshape(
        records, width).astype(np.int64)
    nibs[:, ::WORDS_PER_FRAME] = 0  # word 0 is the header
    nibs[:, 1:3] = 0  # X0 / XN in frame 0
    if level == 1:
        keys = nibs
    else:
        dnib = ((words >> np.uint32(30)) & np.uint32(3)).astype(np.int64)
        keys = np.where(nibs <= 1, nibs, nibs * 4 + dnib)
    count_lut, shift_lut, mask_lut, sign_lut, _width = _UNPACK_TABLES[level]
    counts = count_lut[keys]
    invalid = (counts < 0).any(axis=1)
    produced = counts.sum(axis=1)
    failed = invalid | (produced < nsamples)
    if failed.any():
        first = int(np.argmax(failed))
        # An earlier record's XN mismatch is raised first.
        _decode_live(words[:first], nsamples[:first], level)
        if invalid[first]:
            raise SteimError("invalid Steim-2 dnib combination")
        raise SteimError(f"Steim payload ended early: {int(produced[first])} "
                         f"of {int(nsamples[first])} samples")

    flat_keys = keys.reshape(-1)
    masks = np.take(mask_lut, flat_keys, axis=0)
    signs = np.take(sign_lut, flat_keys, axis=0)
    fields = ((words.reshape(-1)[:, None]
               >> np.take(shift_lut, flat_keys, axis=0)) & masks).view(np.int32)
    diffs = ((fields ^ signs) - signs)[masks != 0]

    # Each record keeps the first nsamples of its differences, the
    # first of them replaced by X0; one cumsum then runs across the
    # records and each record's run is rebased to start from its X0.
    starts = np.cumsum(nsamples) - nsamples
    if (produced == nsamples).all():
        series = diffs.astype(np.int64)
    else:
        skipped = np.cumsum(produced) - produced - starts
        series = diffs[np.arange(int(nsamples.sum()))
                       + np.repeat(skipped, nsamples)].astype(np.int64)
    x0 = words[:, 1].view(np.int32).astype(np.int64)
    series[starts] = x0
    np.cumsum(series, out=series)
    series -= np.repeat(series[starts] - x0, nsamples)
    last = series[starts + nsamples - 1]
    xn = words[:, 2].view(np.int32)
    mismatch = last != xn
    if mismatch.any():
        first = int(np.argmax(mismatch))
        raise SteimError(
            f"reverse integration constant mismatch: got {int(last[first])}, "
            f"expected {int(xn[first])}"
        )
    return series.astype(np.int32)


def decode_steim1(data: bytes, nsamples: int, *,
                  check_integration: bool = True) -> np.ndarray:
    """Decode ``nsamples`` samples from a Steim-1 payload (the reference)."""
    return _decode_reference(data, nsamples, 1,
                             check_integration=check_integration)


def decode_steim2(data: bytes, nsamples: int, *,
                  check_integration: bool = True) -> np.ndarray:
    """Decode ``nsamples`` samples from a Steim-2 payload (the reference)."""
    return _decode_reference(data, nsamples, 2,
                             check_integration=check_integration)
