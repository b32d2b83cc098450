"""Executable completeness driver and the unlearning security game.

``run_game`` replays the security game line by line against a transcript
supplied by an adversary strategy: recompute the k-th unlearnt batch from
the surrendered datasets, check every commitment's data root, verify the
initialization, the update-proof chain, and the unlearning proof, and
finally evaluate the winning predicate (point unlearnt at k < l yet
present in the last dataset).  The adversary wins (verdict 1) only if
every line passes.

Knowledge-soundness extractors exist only inside proofs, so test
adversaries surrender their datasets as part of the transcript — exactly
the information the extractor would output.  The auxiliary input of the
definition plays no computational role here and is fixed to empty.

A test suite can only sample strategies, so this harness is a
falsification tool for an implementation, not a proof of security.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .circuits import WitnessSynthesisError, data_projection, model_projection
from .field import BN254_SCALAR_FIELD, fx_encode
from .hashing import DataPoint, hash_model_weights
from .protocol import (
    Commitment,
    PublicParams,
    ServerState,
    UnlearnProof,
    UpdateProof,
    prove_unlearn,
    prove_update,
    queue_add,
    queue_delete,
    server_init,
    verify_init,
    verify_unlearn,
    verify_update,
)
from .training import Dataset


class MalformedTranscript(ValueError):
    pass


@dataclass(frozen=True)
class AdversaryTranscript:
    """Everything the adversary outputs, plus the surrendered datasets
    standing in for the extractor's output.  ``commitments`` and
    ``datasets`` run over iterations 0..l, ``updates`` over 1..l."""

    k: int
    d: DataPoint
    unlearn_proof: UnlearnProof
    commitments: tuple[Commitment, ...]
    init_marker: str
    updates: tuple[UpdateProof, ...]
    datasets: tuple[Dataset, ...]


@dataclass(frozen=True)
class GameReport:
    strategy: str
    seed: int
    verdict: int
    failing_check: Optional[str]

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "verdict": self.verdict,
            "failing_check": self.failing_check,
        }


def run_game(
    pub: PublicParams,
    transcript: AdversaryTranscript,
    *,
    check_commitments: bool = True,
) -> tuple[int, Optional[str]]:
    """Returns (verdict, failing_check); failing_check is None on a win.

    ``check_commitments=False`` removes the commitment-validity line — a
    negative control demonstrating that line is load-bearing, never used
    in real verification.
    """
    t = transcript
    ell = len(t.commitments) - 1
    if ell < 1 or len(t.datasets) != ell + 1 or len(t.updates) != ell:
        raise MalformedTranscript("misaligned transcript lists")
    if not 1 <= t.k <= ell:
        raise MalformedTranscript(f"claimed iteration {t.k} out of range")

    # Pre-processing: recompute the k-th unlearnt batch from the datasets.
    unlearnt_at_k = [d for d in t.datasets[t.k - 1].points if d not in set(t.datasets[t.k].points)]

    if check_commitments:
        for i, (com, dataset) in enumerate(zip(t.commitments, t.datasets)):
            if pub.commit_dataset(dataset) != com.h_d:
                return 0, "commitments"

    if not verify_init(pub, t.commitments[0], t.init_marker):
        return 0, "init"

    for i in range(1, ell + 1):
        if not verify_update(pub, t.commitments[i - 1], t.commitments[i], t.updates[i - 1]):
            return 0, "update_proof"

    if not verify_unlearn(pub, t.d, t.commitments[t.k], t.unlearn_proof):
        return 0, "unlearn_proof"

    if t.k < ell and t.d in unlearnt_at_k and t.d in set(t.datasets[ell].points):
        return 1, None
    return 0, "winning_predicate"


# -- honest protocol run shared by the builtin strategies ---------------------


@dataclass
class HonestRun:
    """Three-iteration honest run: add three points, unlearn one (k=2),
    then add a fourth.  Strategies mutate copies of this transcript."""

    points: list[DataPoint]
    states: list[ServerState]
    commitments: list[Commitment]
    init_marker: str
    updates: list[UpdateProof]
    datasets: list[Dataset]
    unlearned: DataPoint
    k: int
    unlearn_proof: UnlearnProof


def _random_point(pub: PublicParams, rng: random.Random, uid: int) -> DataPoint:
    scale = pub.scale
    grid = [i / 4 for i in range(-4, 5)]
    x = tuple(fx_encode(rng.choice(grid), scale) for _ in range(pub.config.train.arity))
    return DataPoint(uid=uid, x=x, y=fx_encode(rng.choice((0, 1)), scale))


def honest_run(pub: PublicParams, seed: int) -> HonestRun:
    if pub.config.capacity < 4 or pub.config.unlearn_capacity < 1:
        raise ValueError("the builtin strategies need capacity >= 4")
    rng = random.Random(f"unlearn-game-{seed}")
    pts = [_random_point(pub, rng, uid) for uid in range(1, 5)]

    state, com0, marker = server_init(pub)
    states = [state]
    commitments = [com0]
    datasets = [state.dataset]
    updates: list[UpdateProof] = []

    # Iteration 1 adds three points, 2 unlearns one (k = 2), 3 adds a fourth.
    for adds, deletes in ((pts[:3], ()), ((), pts[1:2]), (pts[3:], ())):
        for d in adds:
            state = queue_add(state, d, pub)
        for d in deletes:
            state = queue_delete(state, d)
        state, _, com, proof = prove_update(state, pub)
        states.append(state)
        commitments.append(com)
        datasets.append(state.dataset)
        updates.append(proof)

    return HonestRun(
        points=pts,
        states=states,
        commitments=commitments,
        init_marker=marker,
        updates=updates,
        datasets=datasets,
        unlearned=pts[1],
        k=2,
        unlearn_proof=prove_unlearn(pub, states[2], pts[1]),
    )


def _transcript_of(run: HonestRun) -> AdversaryTranscript:
    return AdversaryTranscript(
        k=run.k,
        d=run.unlearned,
        unlearn_proof=run.unlearn_proof,
        commitments=tuple(run.commitments),
        init_marker=run.init_marker,
        updates=tuple(run.updates),
        datasets=tuple(run.datasets),
    )


# -- builtin adversary strategies ---------------------------------------------


class Strategy:
    name: str = "abstract"
    targeted_check: Optional[str] = None

    def build(self, pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
        raise NotImplementedError


class HonestServer(Strategy):
    """Control: plays honestly and never re-adds, so only the winning
    predicate itself can fail."""

    name = "HonestServer"
    targeted_check = "winning_predicate"

    def build(self, pub, run):
        return _transcript_of(run)


class WrongModelHash(Strategy):
    """Commits to the hash of a model that was not trained on the
    committed dataset; the spliced model proof cannot verify."""

    name = "WrongModelHash"
    targeted_check = "update_proof"

    def build(self, pub, run):
        cfg = pub.hash_cfg
        honest = run.states[-1].model
        fake_weights = tuple((w + 1) % BN254_SCALAR_FIELD for w in honest.weights)
        fake_h_m = hash_model_weights(fake_weights, cfg)
        com = run.commitments[-1]
        forged_com = replace(com, h_m=fake_h_m)
        old = run.updates[-1]
        forged_model_proof = replace(old.model_proof, public_inputs=(fake_h_m, com.h_d))
        t = _transcript_of(run)
        return replace(
            t,
            commitments=t.commitments[:-1] + (forged_com,),
            updates=t.updates[:-1] + (replace(old, model_proof=forged_model_proof),),
        )


class ForgedUnlearnPath(Strategy):
    """Claims unlearning of a point that is still in the training set,
    recycling another point's membership path."""

    name = "ForgedUnlearnPath"
    targeted_check = "unlearn_proof"

    def build(self, pub, run):
        target = run.points[0]  # never deleted
        forged = UnlearnProof(
            path=run.unlearn_proof.path, iteration=run.k, uid=target.uid
        )
        return replace(_transcript_of(run), d=target, unlearn_proof=forged)


class StaleCommitmentSplice(Strategy):
    """Presents iteration l's commitments with the previous iteration's
    proof pair; public-input binding must reject the splice."""

    name = "StaleCommitmentSplice"
    targeted_check = "update_proof"

    def build(self, pub, run):
        t = _transcript_of(run)
        return replace(t, updates=t.updates[:-1] + (t.updates[-2],))


class ReAddAfterUnlearn(Strategy):
    """Re-adds the unlearnt point in the final iteration and commits to
    the re-added dataset honestly.  The dataset-update statement is then
    false (the sets intersect), computing its projection fails,
    and the fabricated stand-in proof only passes if the proof system's
    soundness has been removed — in which case the game is won."""

    name = "ReAddAfterUnlearn"
    targeted_check = "update_proof"

    def build(self, pub, run):
        state2 = run.states[2]
        readded = Dataset(state2.dataset.points + (run.unlearned,), state2.dataset.arity)
        model_given, _, digests = model_projection(pub.config, readded)
        com3 = Commitment(h_m=model_given[1], h_d=model_given[2], h_u=state2.unlearnt_root)
        model_proof = pub.backend.prove(pub.model_relation, model_given)
        data_statement = (com3.h_d, state2.unlearnt_root, com3.h_u)
        try:
            data_given = data_projection(pub.config, digests, state2.hashed_unlearnt)
            data_proof = pub.backend.prove(pub.data_relation, data_given)
        except WitnessSynthesisError:
            # No witness exists for intersecting sets; splice in stale
            # proof bytes under the new statement.
            data_proof = replace(run.updates[1].data_proof, public_inputs=data_statement)
        t = _transcript_of(run)
        return replace(
            t,
            commitments=t.commitments[:-1] + (com3,),
            updates=t.updates[:-1] + (UpdateProof(model_proof, data_proof),),
            datasets=t.datasets[:-1] + (readded,),
        )


class CheatWithUnsoundBackend(Strategy):
    """Plays honestly but surrenders doctored datasets claiming the
    unlearnt point was re-added.  Only the commitment-validity line can
    catch the lie; disabling it (negative control) hands the adversary
    the win."""

    name = "CheatWithUnsoundBackend"
    targeted_check = "commitments"

    def build(self, pub, run):
        t = _transcript_of(run)
        last = t.datasets[-1]
        doctored = Dataset(last.points + (run.unlearned,), last.arity)
        return replace(t, datasets=t.datasets[:-1] + (doctored,))


def builtin_strategies() -> list[Strategy]:
    return [
        HonestServer(),
        WrongModelHash(),
        ForgedUnlearnPath(),
        StaleCommitmentSplice(),
        ReAddAfterUnlearn(),
        CheatWithUnsoundBackend(),
    ]


def run_suite(
    pub: PublicParams,
    seeds: Sequence[int],
    strategies: Optional[Sequence[Strategy]] = None,
) -> list[GameReport]:
    """Run every strategy against every seed; honest runs are built once
    per seed and shared across strategies."""
    strategies = list(strategies) if strategies is not None else builtin_strategies()
    reports = []
    for seed in seeds:
        run = honest_run(pub, seed)
        for strategy in strategies:
            transcript = strategy.build(pub, run)
            verdict, failing = run_game(pub, transcript)
            reports.append(GameReport(strategy.name, seed, verdict, failing))
    return reports


# -- completeness driver -------------------------------------------------------


@dataclass(frozen=True)
class CompletenessReport:
    seed: int
    iterations: int
    points_added: int
    points_deleted: int
    init_ok: bool
    updates_verified: int
    unlearns_verified: int
    failures: int


def run_completeness(
    pub: PublicParams, seed: int, iters: int, max_points: int = 8
) -> CompletenessReport:
    """Drive a random valid request sequence end-to-end and verify every
    proof the server emits.  The generator never violates validity: fresh
    uids per addition, deletions drawn from live or never-added points,
    and the compiled capacities are respected."""
    rng = random.Random(f"unlearn-completeness-{seed}")
    scale = pub.scale
    capacity = pub.config.capacity
    unlearn_capacity = pub.config.unlearn_capacity

    state, com, marker = server_init(pub)
    init_ok = verify_init(pub, com, marker)
    failures = 0 if init_ok else 1

    commitments = [com]
    next_uid = 0
    added = deleted = updates_ok = unlearns_ok = 0
    unlearned_points: list[tuple[DataPoint, int]] = []

    for _ in range(iters):
        live = list(state.dataset.points)
        free = capacity - len(live)
        n_add = rng.randint(0, max(0, min(free, max_points)))
        batch_add = []
        for _ in range(n_add):
            d = _random_point(pub, rng, next_uid)
            next_uid += 1
            state = queue_add(state, d, pub)
            batch_add.append(d)
            added += 1

        unlearn_room = unlearn_capacity - len(state.hashed_unlearnt)
        candidates = live + batch_add
        n_del = rng.randint(0, max(0, min(len(candidates), unlearn_room, max_points)))
        batch_del = rng.sample(candidates, n_del)
        if unlearn_room > n_del and rng.random() < 0.25:
            # Exercise deletion of a never-added point (permanently bans it).
            ghost = _random_point(pub, rng, next_uid)
            next_uid += 1
            batch_del.append(ghost)
        for d in batch_del:
            state = queue_delete(state, d)
            deleted += 1

        state, _, com, proof = prove_update(state, pub)
        ok = verify_update(pub, commitments[-1], com, proof)
        updates_ok += ok
        failures += not ok
        commitments.append(com)

        for d in batch_del:
            pi = prove_unlearn(pub, state, d)
            ok = verify_unlearn(pub, d, com, pi)
            unlearns_ok += ok
            failures += not ok
            unlearned_points.append((d, state.iteration))

        if unlearned_points and rng.random() < 0.5:
            # Old deletions stay provable against the latest commitment.
            d, _ = rng.choice(unlearned_points)
            pi = prove_unlearn(pub, state, d)
            ok = verify_unlearn(pub, d, com, pi)
            unlearns_ok += ok
            failures += not ok

    return CompletenessReport(
        seed=seed,
        iterations=iters,
        points_added=added,
        points_deleted=deleted,
        init_ok=init_ok,
        updates_verified=updates_ok,
        unlearns_verified=unlearns_ok,
        failures=failures,
    )
