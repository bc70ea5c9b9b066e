"""From-scratch mSEED (Mini-SEED) substrate.

The paper's source datastore is a repository of mSEED files [1]: binary,
multi-record volumes whose waveform payloads are Steim-compressed and whose
headers carry the metadata Lazy ETL loads eagerly.  This package implements

* the SEED ``BTIME`` timestamp codec (:mod:`repro.mseed.btime`),
* Steim-1/Steim-2 frame codecs and the plain integer/float encodings
  (:mod:`repro.mseed.steim`, :mod:`repro.mseed.encodings`),
* blockettes 1000/1001 and the 48-byte fixed header
  (:mod:`repro.mseed.blockettes`, :mod:`repro.mseed.records`),
* multi-record file reading/writing with cheap header-only scans
  (:mod:`repro.mseed.files`),
* a realistic station inventory and a synthetic waveform/repository
  generator standing in for the ORFEUS archives (:mod:`repro.mseed.inventory`,
  :mod:`repro.mseed.synthesize`),
* the repository abstraction used by the ETL layer
  (:mod:`repro.mseed.repository`).
"""

from repro.mseed.records import RecordHeader, MSeedRecord, RECORD_HEADER_SIZE
from repro.mseed.files import (
    read_file,
    scan_file_headers,
    write_mseed_file,
    file_time_span,
)
from repro.mseed.repository import Repository, FileInfo
from repro.mseed.synthesize import (
    SeismicEvent,
    WaveformSynthesizer,
    RepositoryBuilder,
    RepositorySpec,
    build_repository,
)
from repro.mseed.inventory import Station, Channel, DEFAULT_INVENTORY

__all__ = [
    "RecordHeader",
    "MSeedRecord",
    "RECORD_HEADER_SIZE",
    "read_file",
    "scan_file_headers",
    "write_mseed_file",
    "file_time_span",
    "Repository",
    "FileInfo",
    "SeismicEvent",
    "WaveformSynthesizer",
    "RepositoryBuilder",
    "RepositorySpec",
    "build_repository",
    "Station",
    "Channel",
    "DEFAULT_INVENTORY",
]
