import dataclasses

import pytest

from conftest import run_completeness
from unlearn.game import (
    BUILTIN_STRATEGIES,
    CheatWithUnsoundBackend,
    HonestServer,
    MalformedTranscript,
    ReAddAfterUnlearn,
    honest_run,
    run_game,
    run_suite,
)
from unlearn.proofsys import WitnessCheckBackend
from unlearn.protocol import global_setup

REQUIRED_STRATEGIES = {
    "WrongModelHash",
    "ForgedUnlearnPath",
    "StaleCommitmentSplice",
    "ReAddAfterUnlearn",
    "HonestServer",
}


def test_builtin_suite_contains_required_strategies():
    names = {s.name for s in BUILTIN_STRATEGIES}
    assert REQUIRED_STRATEGIES <= names


def test_all_builtins_lose_under_checked_backend(fast_pub):
    reports = run_suite(fast_pub, seeds=[0, 1, 2])
    assert all(r.verdict == 0 for r in reports)


def test_each_strategy_fails_at_its_targeted_check(fast_pub):
    run = honest_run(fast_pub, seed=0)
    for strategy in BUILTIN_STRATEGIES:
        transcript = strategy.build(fast_pub, run)
        verdict, failing = run_game(fast_pub, transcript)
        assert verdict == 0
        assert failing == strategy.targeted_check, strategy.name


def test_honest_server_passes_all_verifications(fast_pub):
    # The game rejects the honest transcript only at the winning predicate:
    # every verification line passes.
    run = honest_run(fast_pub, seed=3)
    verdict, failing = run_game(fast_pub, HonestServer.build(fast_pub, run))
    assert (verdict, failing) == (0, "winning_predicate")


def test_negative_control_unsound_backend_wins(fast_pub):
    pub = global_setup(fast_pub.config, backend=WitnessCheckBackend(check=False))
    reports = run_suite(pub, seeds=[0])
    wins = {r.strategy for r in reports if r.verdict == 1}
    assert "ReAddAfterUnlearn" in wins


def test_negative_control_commitment_line(fast_pub):
    run = honest_run(fast_pub, seed=1)
    cheat = CheatWithUnsoundBackend.build(fast_pub, run)
    assert run_game(fast_pub, cheat) == (0, "commitments")
    assert run_game(fast_pub, cheat, check_commitments=False) == (1, None)


def test_readd_strategy_surrenders_true_datasets(fast_pub):
    run = honest_run(fast_pub, seed=2)
    transcript = ReAddAfterUnlearn.build(fast_pub, run)
    # The re-added dataset is surrendered honestly (the lie lives in the
    # forged proof, not the extraction), so the commitment line passes and
    # rejection happens at the update proof.
    assert transcript.d in set(transcript.datasets[-1].points)
    assert run_game(fast_pub, transcript) == (0, "update_proof")


def test_malformed_transcripts_rejected(fast_pub):
    run = honest_run(fast_pub, seed=0)
    t = HonestServer.build(fast_pub, run)
    with pytest.raises(MalformedTranscript):
        run_game(fast_pub, dataclasses.replace(t, k=9))
    with pytest.raises(MalformedTranscript):
        run_game(fast_pub, dataclasses.replace(t, updates=t.updates[:-1]))
    with pytest.raises(MalformedTranscript):
        run_game(fast_pub, dataclasses.replace(t, datasets=t.datasets[:-1]))


def test_report_shape(fast_pub):
    reports = run_suite(fast_pub, seeds=[4], strategies=[HonestServer])
    payload = reports[0].to_dict()
    assert set(payload) == {"strategy", "seed", "verdict", "failing_check"}


def test_completeness_driver(fast_pub):
    for seed in range(5):
        report = run_completeness(fast_pub, seed=seed, iters=3, max_points=4)
        assert report.failures == 0
        assert report.init_ok
        assert report.updates_verified == 3


def test_completeness_driver_respects_capacity(fast_pub):
    # Long runs with aggressive deletion never overflow the compiled shape.
    report = run_completeness(fast_pub, seed=123, iters=5, max_points=8)
    assert report.failures == 0
