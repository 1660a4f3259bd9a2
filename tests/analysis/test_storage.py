"""Tests for the storage-overhead accounting (paper Section 6.8)."""

from repro.dram.config import ddr5_8000b
from repro.analysis.storage import interval_register_bits, storage_overhead_bits


def test_interval_register_is_24_bits_for_paper_device():
    """Paper: a 24-bit register covers intervals up to ~tREFW/2."""
    bits = interval_register_bits(ddr5_8000b())
    assert bits == 26 or 24 <= bits <= 27


def test_controller_cost_is_a_few_bytes():
    overhead = storage_overhead_bits()
    assert overhead.interval_register_bits / 8 <= 4


def test_queue_entry_fits_row_address_plus_counter():
    overhead = storage_overhead_bits()
    # 17 bits row address (128K rows) + ~10 bits count.
    assert 20 <= overhead.queue_bits_per_bank <= 40
    assert overhead.banks == 128
    assert overhead.queue_bits_per_bank * overhead.banks / 8 < 1024


# ----------------------------------------------------------------------
# SummaryIndex persistence regressions
# ----------------------------------------------------------------------
def test_summary_index_load_dedupes_duplicate_rows(tmp_path):
    """A writer killed between append and rewrite can leave duplicate
    rows on disk; loading must keep one entry (last wins) and flush()
    must not write the survivor twice."""
    import json

    from repro.analysis.storage import SummaryIndex

    rows = [
        {"experiment": "fig10", "status": "ok"},
        {"experiment": "fig10", "status": "error"},
        {"experiment": "fig11", "status": "ok"},
    ]
    (tmp_path / "summary.json").write_text(json.dumps(rows))

    index = SummaryIndex.load(tmp_path)
    assert index.order == ["fig10", "fig11"]
    assert index.entries["fig10"]["status"] == "error"

    index.flush()
    flushed = json.loads((tmp_path / "summary.json").read_text())
    assert [row["experiment"] for row in flushed] == ["fig10", "fig11"]


def test_storage_overhead_accepts_explicit_none():
    """``config=None`` (the annotated default) must fall back to the
    paper device, same as calling with no argument."""
    assert storage_overhead_bits(None) == storage_overhead_bits()


# ----------------------------------------------------------------------
# Checksum footers + corruption quarantine
# ----------------------------------------------------------------------
def test_checksum_roundtrip_and_tamper_detection():
    from repro.analysis.storage import attach_checksum, verify_checksum

    doc = attach_checksum({"a": 1, "nested": {"b": [1, 2.5]}})
    assert verify_checksum(doc) is True
    tampered = dict(doc, a=2)
    assert verify_checksum(tampered) is False
    # Footer-less (legacy) documents are neither valid nor invalid.
    assert verify_checksum({"a": 1}) is None
    assert verify_checksum([1, 2]) is None


def test_attach_checksum_is_idempotent():
    from repro.analysis.storage import attach_checksum

    once = attach_checksum({"x": 1})
    assert attach_checksum(once) == once


def test_load_checked_json_accepts_valid_and_legacy_files(tmp_path):
    from repro.analysis.storage import (
        atomic_write_json,
        attach_checksum,
        load_checked_json,
    )

    checked = tmp_path / "checked.json"
    atomic_write_json(checked, attach_checksum({"v": 1}))
    assert load_checked_json(checked)["v"] == 1
    legacy = tmp_path / "legacy.json"
    atomic_write_json(legacy, {"v": 2})
    assert load_checked_json(legacy)["v"] == 2


def test_load_checked_json_raises_on_damage(tmp_path):
    import json

    import pytest

    from repro.analysis.storage import (
        CorruptResultError,
        attach_checksum,
        load_checked_json,
    )

    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    with pytest.raises(CorruptResultError, match="invalid JSON"):
        load_checked_json(bad)

    stale = attach_checksum({"v": 1})
    stale["v"] = 99  # mutate after checksumming
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps(stale))
    with pytest.raises(CorruptResultError, match="checksum mismatch"):
        load_checked_json(mismatched)

    with pytest.raises(FileNotFoundError):  # absence is not corruption
        load_checked_json(tmp_path / "missing.json")


def test_quarantine_corrupt_uniquifies_sidecars(tmp_path):
    from repro.analysis.storage import quarantine_corrupt

    target = tmp_path / "result.json"
    target.write_text("one")
    first = quarantine_corrupt(target)
    assert first.name == "result.json.corrupt" and first.read_text() == "one"
    target.write_text("two")
    second = quarantine_corrupt(target)
    assert second.name == "result.json.corrupt.1"
    assert not target.exists()


def test_summary_index_quarantines_corrupt_file(tmp_path):
    import json

    from repro.analysis.storage import SummaryIndex

    (tmp_path / "summary.json").write_text("{nope")
    index = SummaryIndex.load(tmp_path)
    assert index.entries == {}
    assert (tmp_path / "summary.json.corrupt").exists()
    # Wrong shape (an object, not a list) is quarantined too.
    (tmp_path / "summary.json").write_text(json.dumps({"experiment": "x"}))
    assert SummaryIndex.load(tmp_path).entries == {}
    assert (tmp_path / "summary.json.corrupt.1").exists()
