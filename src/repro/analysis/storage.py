"""Storage accounting and experiment-result persistence.

Two kinds of "storage" live here:

* Hardware storage-overhead accounting (paper Section 6.8): TPRAC's
  controller-side state is a single RFM Interval Register per memory
  controller holding the TB-Window.  24 bits suffice to express
  intervals up to ~half a tREFW at DRAM-clock granularity.  The
  in-DRAM cost is the single-entry mitigation queue per bank (row
  address + activation count), which prior PRAC designs already
  require.

* On-disk result storage for the experiment suite: atomic JSON writes,
  content-hash cache keys, and the incrementally-flushed
  ``summary.json`` index that makes interrupted suite runs resumable.

Resumability makes persisted files *inputs*, so this module also
hardens the read side: result documents can carry a content-checksum
footer (:func:`attach_checksum`), readers validate it via
:func:`load_checked_json`, and anything unreadable is moved to a
``*.corrupt`` sidecar by :func:`quarantine_corrupt` — preserved for
forensics, invisible to ``--resume`` — so the orchestrators re-run the
work instead of trusting a damaged file.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.dram.config import DramConfig, ddr5_8000b

PathLike = Union[str, Path]


@dataclass(frozen=True)
class StorageOverhead:
    """Bit counts for TPRAC's added state."""

    interval_register_bits: int
    queue_bits_per_bank: int
    banks: int


def interval_register_bits(config: DramConfig) -> int:
    """Bits to encode intervals up to tREFW/2 in DRAM clock ticks."""
    max_interval_ticks = (config.timing.tREFW / 2) / config.timing.tCK
    return math.ceil(math.log2(max_interval_ticks))


def storage_overhead_bits(config: Optional[DramConfig] = None) -> StorageOverhead:
    """Total TPRAC storage: one interval register + one queue entry/bank."""
    config = config or ddr5_8000b()
    org = config.organization
    row_bits = math.ceil(math.log2(org.rows_per_bank))
    count_bits = math.ceil(math.log2(max(2, config.prac.nbo)))
    return StorageOverhead(
        interval_register_bits=interval_register_bits(config),
        queue_bits_per_bank=row_bits + count_bits,
        banks=org.banks_per_channel,
    )


# ----------------------------------------------------------------------
# Experiment-result persistence


def atomic_write_json(path: PathLike, payload: Any) -> Path:
    """Serialize ``payload`` and atomically replace ``path``.

    A crash mid-write must never leave a truncated JSON document behind
    — readers (resumed suites, dashboards) always see either the old or
    the new file.
    """
    return atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Atomically replace ``path`` with ``text`` (same guarantees as
    :func:`atomic_write_json`; used for line-oriented formats like the
    observability JSONL traces)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def content_key(payload: Any) -> str:
    """Deterministic sha256 over a JSON-able payload (cache identity)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# Corruption detection and quarantine

#: Key under which a result document records its own content checksum.
CHECKSUM_KEY = "checksum"

#: Suffix appended to files moved aside by :func:`quarantine_corrupt`.
CORRUPT_SUFFIX = ".corrupt"


class CorruptResultError(ValueError):
    """A persisted result file failed validation (parse or checksum)."""

    def __init__(self, path: PathLike, reason: str) -> None:
        super().__init__(f"{path}: {reason}")
        self.path = Path(path)
        self.reason = reason


def attach_checksum(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``doc`` with a ``checksum`` footer over its other keys.

    The checksum covers the canonical JSON of the document *without*
    the footer, so any post-write mutation — truncation, bit rot, a
    hand edit — is detectable by :func:`verify_checksum`.
    """
    body = {k: v for k, v in doc.items() if k != CHECKSUM_KEY}
    return {**body, CHECKSUM_KEY: f"sha256:{content_key(body)}"}


def verify_checksum(doc: Any) -> Optional[bool]:
    """True/False for a checksummed document; None when no footer.

    ``None`` (rather than False) for footer-less documents keeps
    pre-checksum result files loadable — legacy artifacts are accepted,
    not quarantined.
    """
    if not isinstance(doc, dict) or CHECKSUM_KEY not in doc:
        return None
    body = {k: v for k, v in doc.items() if k != CHECKSUM_KEY}
    return bool(doc[CHECKSUM_KEY] == f"sha256:{content_key(body)}")


def load_checked_json(path: PathLike) -> Any:
    """Parse ``path`` and validate its checksum footer if present.

    Raises :class:`CorruptResultError` for unparseable JSON or a
    checksum mismatch; missing files raise ``OSError`` as usual
    (absence is not corruption).
    """
    path = Path(path)
    text = path.read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptResultError(path, f"invalid JSON: {exc}") from exc
    if verify_checksum(doc) is False:
        raise CorruptResultError(path, "checksum mismatch")
    return doc


def quarantine_corrupt(path: PathLike) -> Path:
    """Move a damaged file to a ``*.corrupt`` sidecar and return it.

    The sidecar name is uniquified (``.corrupt.1``, ``.corrupt.2`` …)
    so repeated corruption of a re-run file never destroys earlier
    evidence.
    """
    path = Path(path)
    sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
    counter = 1
    while sidecar.exists():
        sidecar = path.with_name(f"{path.name}{CORRUPT_SUFFIX}.{counter}")
        counter += 1
    os.replace(path, sidecar)
    return sidecar


class SummaryIndex:
    """The ``summary.json`` index of a suite results directory.

    Entries are recorded as each experiment finishes and the file is
    rewritten (atomically) on every record, so a killed or crashed
    suite still leaves a consistent index of everything that completed.
    Entries keep the caller-requested experiment order regardless of
    parallel completion order.
    """

    FILENAME = "summary.json"

    def __init__(self, root: PathLike, order: Iterable[str] = ()) -> None:
        self.root = Path(root)
        self.order: List[str] = list(order)
        self.entries: Dict[str, Dict[str, Any]] = {}

    @property
    def path(self) -> Path:
        return self.root / self.FILENAME

    @classmethod
    def load(cls, root: PathLike) -> "SummaryIndex":
        """Read an existing index.

        Missing files yield an empty index; corrupt or wrong-shape
        files are moved to a ``*.corrupt`` sidecar (then yield an empty
        index) so every completed experiment is re-validated against
        its own result file rather than a damaged summary.
        """
        index = cls(root)
        try:
            rows = json.loads(index.path.read_text())
        except OSError:
            return index
        except json.JSONDecodeError:
            quarantine_corrupt(index.path)
            return index
        if not isinstance(rows, list):
            quarantine_corrupt(index.path)
            return index
        for entry in rows:
            if not isinstance(entry, dict) or "experiment" not in entry:
                continue
            name = entry["experiment"]
            # Tolerate duplicate rows (e.g. from a writer killed between
            # append and rewrite): last entry wins, and the name enters
            # the order once so flush() never re-duplicates the row.
            if name not in index.entries:
                index.order.append(name)
            index.entries[name] = entry
        return index

    def record(self, entry: Dict[str, Any], flush: bool = True) -> None:
        """Add/replace one experiment's entry; flush to disk by default."""
        name = entry["experiment"]
        if name not in self.order:
            self.order.append(name)
        self.entries[name] = entry
        if flush:
            self.flush()

    def flush(self) -> Path:
        """Rewrite ``summary.json`` with every recorded entry."""
        rows = [self.entries[n] for n in self.order if n in self.entries]
        return atomic_write_json(self.path, rows)
