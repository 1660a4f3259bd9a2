"""Tests for the walkthrough and obfuscation experiments."""

from repro.experiments import fig8_walkthrough, obfuscation_defense


def test_fig8_is_secure_and_tracks_decoys():
    result = fig8_walkthrough.run(nbo=100, acts_per_window=40, epochs=4)
    assert result.alerts == 0
    assert result.target_peak < 100
    assert len(result.snapshots) == 4
    # Epoch 1 spreads uniformly over the four rows.
    first = result.snapshots[0].counters
    assert first == {"A": 10, "B": 10, "C": 10, "T": 10}
    # The target monotonically accumulates until its own mitigation.
    target = [s.counters["T"] for s in result.snapshots]
    assert target[1] > target[0]
    # Decoys are sacrificed one per epoch; the last TB-RFM takes T.
    mitigated = [name for snap in result.snapshots for name in snap.mitigated]
    assert mitigated == ["A", "B", "C", "T"]
    assert result.secure
    assert "secure=True" in result.format_table()


def test_fig8_larger_window_still_secure():
    result = fig8_walkthrough.run(nbo=100, acts_per_window=60, epochs=4)
    assert result.secure


def test_obfuscation_outcomes_cover_three_defenses():
    result = obfuscation_defense.run(bits=6)
    assert [o.defense for o in result.outcomes] == ["none", "obfuscation", "tprac"]
    none, obfuscation, tprac = result.outcomes
    assert none.error_rate == 0.0
    assert obfuscation.rfms_observed > none.rfms_observed
    # Both defenses break the single-window decoder, but injection
    # leaves a statistical residue that TPRAC's schedule does not.
    assert obfuscation.error_rate > 0.15
    assert tprac.error_rate > 0.15
    assert 0.0 < result.analytical.total_variation < 1.0
    assert 0.5 < result.analytical.classifier_accuracy < 1.0
    assert result.format_table()
