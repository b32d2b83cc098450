"""The unlearning security game, run as code.

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

A strategy is a named edit of an honest transcript: ``honest_run`` plays
the protocol honestly once per seed, and each builtin ``Strategy``
rewrites that run's transcript to attack one line of the game.  A test
suite can only sample strategies, so this harness is a falsification tool
for an implementation, not a proof of security.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

from .bench import random_point
from .circuits import WitnessSynthesisError, data_projection, model_projection
from .field import BN254_SCALAR_FIELD
from .hashing import DataPoint, hash_model_weights
from .protocol import Commitment, PublicParams, ServerState, UnlearnProof, UpdateProof
from .protocol import prove_unlearn, prove_update, queue_add, queue_delete, server_init
from .protocol import verify_init, verify_unlearn, verify_update
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
        return asdict(self)


def run_game(pub: PublicParams, transcript: AdversaryTranscript) -> tuple[int, Optional[str]]:
    """Returns (verdict, failing_check); failing_check is None on a win."""
    t = transcript
    ell = len(t.commitments) - 1
    if ell < 1 or len(t.datasets) != ell + 1 or len(t.updates) != ell:
        raise MalformedTranscript("misaligned transcript lists")
    if not 1 <= t.k <= ell:
        raise MalformedTranscript(f"claimed iteration {t.k} out of range")

    # Pre-processing: recompute the k-th unlearnt batch from the datasets.
    unlearnt_at_k = [d for d in t.datasets[t.k - 1].points if d not in set(t.datasets[t.k].points)]

    for com, dataset in zip(t.commitments, t.datasets):
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


@dataclass(frozen=True)
class HonestRun:
    """Three-iteration honest run: add three points, unlearn the second
    (k = 2), then add a fourth.  ``transcript`` is what an honest server
    outputs; ``points`` are the four points and ``states`` the server's
    state after each iteration, 0..3."""

    transcript: AdversaryTranscript
    points: tuple[DataPoint, ...]
    states: tuple[ServerState, ...]


def honest_run(pub: PublicParams, seed: int) -> HonestRun:
    if pub.config.capacity < 4:
        raise ValueError("the builtin strategies need capacity >= 4")
    rng = random.Random(f"unlearn-game-{seed}")
    pts = tuple(random_point(rng, uid, pub.config.train.arity, pub.scale) for uid in range(1, 5))

    state, com0, marker = server_init(pub)
    states, commitments, updates = [state], [com0], []

    # Iteration 1 adds three points, 2 unlearns one (k = 2), 3 adds a fourth.
    for adds, deletes in ((pts[:3], ()), ((), pts[1:2]), (pts[3:], ())):
        for d in adds:
            state = queue_add(state, d, pub)
        for d in deletes:
            state = queue_delete(state, d)
        state, _, com, proof = prove_update(state, pub)
        states.append(state)
        commitments.append(com)
        updates.append(proof)

    transcript = AdversaryTranscript(
        k=2,
        d=pts[1],
        unlearn_proof=prove_unlearn(pub, states[2], pts[1]),
        commitments=tuple(commitments),
        init_marker=marker,
        updates=tuple(updates),
        datasets=tuple(s.dataset for s in states),
    )
    return HonestRun(transcript, pts, tuple(states))


# -- builtin adversary strategies ---------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """An adversary: ``build(pub, run)`` edits the honest run's transcript
    into the one it plays, aimed at the game line ``targeted_check``."""

    name: str
    targeted_check: str
    build: Callable[[PublicParams, HonestRun], AdversaryTranscript]


def _honest(pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
    """Control: plays honestly and never re-adds, so only the winning
    predicate itself can fail."""
    return run.transcript


def _wrong_model_hash(pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
    """Commits to the hash of a model that was not trained on the
    committed dataset; the spliced model proof cannot verify."""
    t = run.transcript
    fake_weights = tuple((w + 1) % BN254_SCALAR_FIELD for w in run.states[-1].model.weights)
    fake_h_m = hash_model_weights(fake_weights, pub.hash_cfg)
    forged_com = replace(t.commitments[-1], h_m=fake_h_m)
    old = t.updates[-1]
    forged_model_proof = replace(old.model_proof, public_inputs=(fake_h_m, forged_com.h_d))
    return replace(
        t,
        commitments=t.commitments[:-1] + (forged_com,),
        updates=t.updates[:-1] + (replace(old, model_proof=forged_model_proof),),
    )


def _forged_unlearn_path(pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
    """Claims unlearning of a point that is still in the training set,
    recycling another point's membership path."""
    t = run.transcript
    target = run.points[0]  # never deleted
    forged = UnlearnProof(path=t.unlearn_proof.path, iteration=t.k, uid=target.uid)
    return replace(t, d=target, unlearn_proof=forged)


def _stale_commitment_splice(pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
    """Presents iteration l's commitments with the previous iteration's
    proof pair; public-input binding must reject the splice."""
    t = run.transcript
    return replace(t, updates=t.updates[:-1] + (t.updates[-2],))


def _readd_after_unlearn(pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
    """Re-adds the unlearnt point in the final iteration and commits to
    the re-added dataset honestly.  The dataset-update statement is then
    false (the sets intersect), computing its projection fails,
    and the fabricated stand-in proof only passes if the proof system's
    soundness has been removed — in which case the game is won."""
    t = run.transcript
    state2 = run.states[2]
    readded = Dataset(state2.dataset.points + (t.d,), state2.dataset.arity)
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
        data_proof = replace(t.updates[1].data_proof, public_inputs=data_statement)
    return replace(
        t,
        commitments=t.commitments[:-1] + (com3,),
        updates=t.updates[:-1] + (UpdateProof(model_proof, data_proof),),
        datasets=t.datasets[:-1] + (readded,),
    )


def _doctor_last_dataset(pub: PublicParams, run: HonestRun) -> AdversaryTranscript:
    """Plays honestly but surrenders doctored datasets claiming the
    unlearnt point was re-added.  Only the commitment-validity line can
    catch the lie; disabling it (negative control) hands the adversary
    the win."""
    t = run.transcript
    last = t.datasets[-1]
    doctored = Dataset(last.points + (t.d,), last.arity)
    return replace(t, datasets=t.datasets[:-1] + (doctored,))


HonestServer = Strategy("HonestServer", "winning_predicate", _honest)
WrongModelHash = Strategy("WrongModelHash", "update_proof", _wrong_model_hash)
ForgedUnlearnPath = Strategy("ForgedUnlearnPath", "unlearn_proof", _forged_unlearn_path)
StaleCommitmentSplice = Strategy("StaleCommitmentSplice", "update_proof", _stale_commitment_splice)
ReAddAfterUnlearn = Strategy("ReAddAfterUnlearn", "update_proof", _readd_after_unlearn)
CheatWithUnsoundBackend = Strategy("CheatWithUnsoundBackend", "commitments", _doctor_last_dataset)

BUILTIN_STRATEGIES = (
    HonestServer,
    WrongModelHash,
    ForgedUnlearnPath,
    StaleCommitmentSplice,
    ReAddAfterUnlearn,
    CheatWithUnsoundBackend,
)


def run_suite(
    pub: PublicParams,
    seeds: Sequence[int],
    strategies: Sequence[Strategy] = BUILTIN_STRATEGIES,
) -> list[GameReport]:
    """Run every strategy against every seed; honest runs are built once
    per seed and shared across strategies."""
    reports = []
    for seed in seeds:
        run = honest_run(pub, seed)
        for strategy in strategies:
            verdict, failing = run_game(pub, strategy.build(pub, run))
            reports.append(GameReport(strategy.name, seed, verdict, failing))
    return reports
