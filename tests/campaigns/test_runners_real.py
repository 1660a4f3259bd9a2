"""Real-simulator trial kinds: the attack×defense composition is live.

These run full event-driven simulations (small budgets, sub-second
each) and assert the *semantics* the campaign exists to measure: the
PRACLeak attacks succeed against ABO-Only and degrade under TPRAC.
"""


from repro.campaigns.runners import run_trial
from repro.campaigns.scenario import Scenario


def test_covert_channel_clean_on_abo_only_and_degraded_by_tprac():
    undefended = run_trial(
        Scenario(attack="covert_activity", mitigation="abo_only",
                 nbo=128, params={"symbols": 6}),
        seed=1,
    )
    defended = run_trial(
        Scenario(attack="covert_activity", mitigation="tprac",
                 nbo=128, params={"symbols": 6}),
        seed=1,
    )
    assert undefended["error_rate"] == 0.0
    assert undefended["bitrate_kbps"] > 10.0
    # TPRAC's timing-based RFMs are key-independent noise: the channel
    # must lose information (strictly more symbol errors).
    assert defended["error_rate"] > undefended["error_rate"]


def test_aes_side_channel_recovers_nibble_against_abo_only():
    metrics = run_trial(
        Scenario(attack="aes_side_channel", mitigation="abo_only",
                 nbo=128, params={"encryptions": 150}),
        seed=1,
    )
    assert metrics["success"] == 1.0


def test_perf_trial_reports_normalized_slowdown():
    metrics = run_trial(
        Scenario(attack="perf", mitigation="tprac", workload="453.povray",
                 nbo=1024, params={"requests_per_core": 400}),
        seed=1,
    )
    assert 0.5 < metrics["normalized_perf"] <= 1.0
    assert metrics["rfms"] > 0


def test_covert_trial_accepts_background_workload_noise():
    metrics = run_trial(
        Scenario(attack="covert_activity", mitigation="abo_only",
                 workload="401.bzip2", nbo=128,
                 params={"symbols": 4, "noise_accesses": 50}),
        seed=2,
    )
    assert set(metrics) == {"error_rate", "bitrate_kbps", "period_us", "symbols"}
    assert metrics["symbols"] == 4.0
