"""The benchmark's input: corpus C162, its alternate bytes, its ground truth.

C162 is ``build_repository(root, RepositorySpec(files_per_stream=6))``:
9 stations x 3 channels x 6 ten-minute files = 162 Steim-2 files,
3 888 000 samples.  Synthesis costs ~15 s (Steim-2 *encoding* in Python),
so a corpus is built once per checkout and cached under ``.bench_build/``,
keyed by spec and corpus seed and guarded by a SHA-256 over every file: a
cached corpus whose digest does not match is refused and rebuilt.

``--seed`` drives every query draw, but only ``CORPUS_VARIANTS`` distinct
corpora: the driver runs ~160 invocations under one wall-clock cap, and
15 s of synthesis per new seed would be most of it.  All variants share
one noise model and differ in event placement and every sample value.

Ground truth is the int32 sample arrays straight from
``WaveformSynthesizer.synthesize`` — they never pass through the mSEED
writer, reader or Steim codec the benchmark measures.

Requires ``PYTHONHASHSEED=0``: ``WaveformSynthesizer._rng`` keys its RNG
on ``hash((seed, network, ...))``, so file bytes differ per process under
hash randomisation (a ``src/`` defect logged in README.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_SEED = 20130826
CORPUS_VARIANTS = 4
FILES_PER_STREAM = 6
ALT_STATIONS = 2          # rewrite workload: first two inventory stations
ALT_SEED_OFFSET = 1000
SAMPLE_STEP_US = 25_000
FORMAT_VERSION = 1


def corpus_seed(seed: int) -> int:
    """The synthesis seed behind ``--seed`` (default seed maps to itself)."""
    return BASE_SEED + (seed - BASE_SEED) % CORPUS_VARIANTS


@dataclass(frozen=True)
class Entry:
    """One generated file; ``index`` is its row in the truth array."""

    index: int
    rel: str
    network: str
    station: str
    channel: str
    start_us: int
    n_samples: int
    n_records: int


@dataclass
class Corpus:
    root: Path                  # the mSEED repository
    alt_root: Path              # alternate bytes for the first ALT files
    entries: list[Entry]
    truth: np.ndarray           # (files, samples) int32
    alt_truth: np.ndarray       # (alt files, samples) int32
    digest: str
    seed: int
    input_gen_s: float          # 0.0 when served from the cache

    @property
    def alt_entries(self) -> list[Entry]:
        return self.entries[:len(self.alt_truth)]

    @property
    def repo_bytes(self) -> int:
        return sum((self.root / e.rel).stat().st_size for e in self.entries)

    def private_copy(self, dest: Path) -> Path:
        """A writable copy of the repository (the cache is never mutated)."""
        shutil.copytree(self.root, dest)
        return dest


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root`` (relative path + bytes)."""
    sha = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        sha.update(path.relative_to(root).as_posix().encode())
        sha.update(b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()


def _spec(stations=None):
    from repro.mseed.inventory import DEFAULT_INVENTORY
    from repro.mseed.synthesize import RepositorySpec

    return RepositorySpec(
        stations=DEFAULT_INVENTORY if stations is None else stations,
        files_per_stream=FILES_PER_STREAM)


def _build_tree(root: Path, spec, seed: int) -> tuple[list[Entry], np.ndarray]:
    from repro.mseed.inventory import Channel, find_station
    from repro.mseed.synthesize import WaveformSynthesizer, build_repository

    manifest = build_repository(root, spec, seed=seed)
    synth = WaveformSynthesizer(manifest.events, seed=seed,
                                noise_counts=spec.noise_counts)
    entries, rows = [], []
    for index, item in enumerate(manifest.entries):
        entries.append(Entry(
            index=index,
            rel=Path(item.path).relative_to(root).as_posix(),
            network=item.network, station=item.station,
            channel=item.channel, start_us=item.start_time_us,
            n_samples=item.n_samples, n_records=item.n_records))
        rows.append(synth.synthesize(
            find_station(item.station, spec.stations),
            Channel(item.channel, item.sample_rate),
            item.start_time_us, item.n_samples))
    return entries, np.stack(rows).astype(np.int32)


def _build(target: Path, seed: int) -> None:
    """Synthesize repository, alternates and truth into ``target``."""
    scratch = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    spec = _spec()
    entries, truth = _build_tree(scratch / "repo", spec, seed)
    alt_spec = _spec(spec.stations[:ALT_STATIONS])
    alt_entries, alt_truth = _build_tree(
        scratch / "alt", alt_spec, seed + ALT_SEED_OFFSET)
    # The rewrite workload swaps alt files over repo files by relative
    # path, so the two trees must list the same leading files.
    if [e.rel for e in alt_entries] != \
            [e.rel for e in entries[:len(alt_entries)]]:
        raise RuntimeError("alternate files do not line up with the corpus")
    np.save(scratch / "truth.npy", truth)
    np.save(scratch / "alt_truth.npy", alt_truth)
    meta = {
        "format": FORMAT_VERSION,
        "seed": seed,
        "digest": tree_digest(scratch / "repo"),
        "alt_digest": tree_digest(scratch / "alt"),
        "entries": [vars(e) for e in entries],
    }
    (scratch / "corpus.json").write_text(json.dumps(meta))
    shutil.rmtree(target, ignore_errors=True)
    os.replace(scratch, target)


def _load(target: Path, seed: int) -> "Corpus | None":
    """The cached corpus, or ``None`` when absent, foreign or altered."""
    try:
        meta = json.loads((target / "corpus.json").read_text())
        if meta["format"] != FORMAT_VERSION or meta["seed"] != seed:
            return None
        if tree_digest(target / "repo") != meta["digest"] \
                or tree_digest(target / "alt") != meta["alt_digest"]:
            return None
        return Corpus(
            root=target / "repo", alt_root=target / "alt",
            entries=[Entry(**e) for e in meta["entries"]],
            truth=np.load(target / "truth.npy"),
            alt_truth=np.load(target / "alt_truth.npy"),
            digest=meta["digest"], seed=seed, input_gen_s=0.0)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def ensure(cache_dir: Path, seed: int) -> Corpus:
    """The corpus for ``--seed``, from the cache or freshly synthesized."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise RuntimeError(
            "corpus synthesis needs PYTHONHASHSEED=0 (run via perf/run.py)")
    synth_seed = corpus_seed(seed)
    target = cache_dir / f"c162-v{FORMAT_VERSION}-{synth_seed}"
    corpus = _load(target, synth_seed)
    if corpus is not None:
        return corpus
    started = time.perf_counter()
    # In a process of its own: ~15 s of synthesis would otherwise leave
    # its heap behind in the process that is about to be measured.
    subprocess.run([sys.executable, __file__, str(target), str(synth_seed)],
                   check=True)
    corpus = _load(target, synth_seed)
    if corpus is None:
        raise RuntimeError(f"corpus at {target} fails its own digest")
    corpus.input_gen_s = time.perf_counter() - started
    return corpus


if __name__ == "__main__":
    _build(Path(sys.argv[1]), int(sys.argv[2]))
