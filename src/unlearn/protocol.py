"""Server/user state machines: Init, ProveUpdate/VerifyUpdate,
ProveUnlearn/VerifyUnlearn, with request batching and validity enforcement.

The server's commitment at iteration i is the triple (h_m, h_D, h_U):
hashed model, training-set tree root, and unlearnt-set chain root.  Users
verify every iteration's update proof against the previous commitment and
check unlearning proofs against the commitment of the iteration the point
was deleted in (or any later one).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import TYPE_CHECKING, Optional, Sequence

from .field import BN254_SCALAR_FIELD, ConfigError, FixedPointOverflow, check_value_range
from .hashing import (
    ABSENT_TAGS,
    DEFAULT_ROUNDS,
    DataPoint,
    HashConfig,
    MembershipPath,
    NotMemberError,
    compute_tree_path,
    hash_data,
    hash_data_point,
    hash_model_weights,
    hash_unlearn,
    sha256,
    verify_tree_path,
)
from .proofsys import FingerprintMismatch, ProofBlob, RelationHandle, get_backend
from .training import Dataset, ModelParams, ShapeMismatch, ShapeOverflow, TrainConfig
from .training import train_model

if TYPE_CHECKING:
    from .circuits import DataCircuit, ModelCircuit

INIT_MARKER = "empty"


class ReAddAfterDelete(ValueError):
    """A deleted uid can never be added again."""


class DuplicateAdd(ValueError):
    """The same point cannot be added twice."""


class ReservedDigest(ValueError):
    """A point whose digest is one of the data circuit's ``ABSENT_TAGS``:
    it would zero the disjointness product, so no update could prove it."""


class CorruptState(ValueError):
    """The stored server state contradicts itself."""


@dataclass(frozen=True)
class ProtocolConfig:
    """The statement shape setup compiles: the training config, the
    training-set and unlearnt-set capacities, the hash rounds, and the
    proof backend.  The hash works over the fixed-point format's field."""

    train: TrainConfig
    capacity: int
    unlearn_capacity: int
    backend: str = "witness-check"
    hash_rounds: int = DEFAULT_ROUNDS

    def __post_init__(self) -> None:
        if self.capacity < 1 or self.unlearn_capacity < 1:
            raise ConfigError("capacities must be positive")
        self.hash_cfg  # HashConfig refuses rounds below 1: fail here, not at first use

    @property
    def hash_cfg(self) -> HashConfig:
        return HashConfig(self.hash_rounds)


@dataclass(frozen=True)
class Commitment:
    h_m: int
    h_d: int
    h_u: int


@dataclass(frozen=True)
class UpdateProof:
    model_proof: ProofBlob
    data_proof: ProofBlob


@dataclass(frozen=True)
class UnlearnProof:
    path: MembershipPath
    iteration: int
    uid: int


@dataclass
class PublicParams:
    """What provers and verifiers need: the config, one relation handle
    per circuit (its fingerprint, rows and setup keys) and the backend.
    Parameters from ``global_setup`` also hold the two circuits it built
    from the empty input; those loaded from a state directory
    (``serialize.StateDir``) hold none, and their relations read the
    stored exports and keys on first use.  Provers compute each
    circuit's projection from their inputs and prove against these
    relations (``prove_update``)."""

    config: ProtocolConfig
    model_relation: RelationHandle
    data_relation: RelationHandle
    backend: object
    model_circuit: Optional[ModelCircuit] = dc_field(default=None, repr=False)
    data_circuit: Optional[DataCircuit] = dc_field(default=None, repr=False)

    @property
    def scale(self):
        return self.config.train.scale

    @property
    def hash_cfg(self) -> HashConfig:
        return self.config.hash_cfg

    def empty_model(self) -> ModelParams:
        """Distinguished sentinel model hashed into com_0; its single
        weight is a tagged constant no training run can produce."""
        digest = sha256(b"unlearn.tag.empty-model").digest()
        weight = int.from_bytes(digest, "big") % BN254_SCALAR_FIELD
        return ModelParams(kind="empty", arity=0, weights=(weight,))

    def commit_dataset(self, dataset: Dataset) -> int:
        """Commit(pub, D): deterministic training-set root."""
        digests = [hash_data_point(d, self.hash_cfg) for d in dataset.points]
        return hash_data(digests, self.hash_cfg)


def global_setup(config: ProtocolConfig, backend=None, setup_store=None) -> PublicParams:
    """Build both circuits from ``config`` and attach each one's setup
    keys to its relation.  ``setup_store`` (see ``serialize.SetupStore``)
    keeps each circuit's export and keys under its fingerprint, and
    reuses keys already there."""
    from .circuits import DataCircuit, ModelCircuit

    model_circuit = ModelCircuit(config)
    data_circuit = DataCircuit(config)
    backend = backend or get_backend(config.backend)

    def relation(cs):
        if setup_store is None:
            rel = RelationHandle.of(cs)
        else:
            # One export, streamed to disk, is both the stored file and the
            # fingerprint's preimage.
            rel = RelationHandle(setup_store.save_circuit(cs), cs)
            rel.keys = setup_store.load(backend.name, rel.fingerprint)
        if rel.keys is None:
            rel.keys = backend.setup(rel)
            if setup_store is not None:
                setup_store.save(backend.name, rel.fingerprint, rel.keys)
        return rel

    return PublicParams(
        config=config,
        model_relation=relation(model_circuit.cs),
        data_relation=relation(data_circuit.cs),
        backend=backend,
        model_circuit=model_circuit,
        data_circuit=data_circuit,
    )


@dataclass
class ServerState:
    """st_S: the training set, the unlearnt set (one ``(uid, digest)``
    record per deletion, in chain order) and its chain root, the deployed
    model, and the pending request batches."""

    iteration: int
    dataset: Dataset
    unlearnt: tuple[tuple[int, int], ...]
    unlearnt_root: int
    model: ModelParams
    pending_add: tuple[DataPoint, ...] = ()
    pending_delete: tuple[DataPoint, ...] = ()

    @property
    def hashed_unlearnt(self) -> tuple[int, ...]:
        return tuple(digest for _, digest in self.unlearnt)


def server_init(pub: PublicParams) -> tuple[ServerState, Commitment, str]:
    cfg = pub.hash_cfg
    empty_model = pub.empty_model()
    state = ServerState(
        iteration=0,
        dataset=Dataset((), pub.config.train.arity),
        unlearnt=(),
        unlearnt_root=hash_unlearn((), cfg),
        model=empty_model,
    )
    com = Commitment(
        h_m=hash_model_weights(empty_model.weights, cfg),
        h_d=hash_data((), cfg),
        h_u=hash_unlearn((), cfg),
    )
    return state, com, INIT_MARKER


def verify_init(pub: PublicParams, com: Commitment, marker: str) -> bool:
    cfg = pub.hash_cfg
    return (
        marker == INIT_MARKER
        and com.h_m == hash_model_weights(pub.empty_model().weights, cfg)
        and com.h_d == hash_data((), cfg)
        and com.h_u == hash_unlearn((), cfg)
    )


def _batch_points(state: ServerState) -> list[DataPoint]:
    """The training set the next update commits to, in training order:
    the dataset, then the pending additions, minus the pending deletions."""
    removed = set(state.pending_delete)
    points = [d for d in state.dataset.points if d not in removed]
    return points + [d for d in state.pending_add if d not in removed]


def _admit(state: ServerState, points: Sequence[DataPoint], pub: PublicParams) -> ServerState:
    """Queue ``points`` if each is new, the would-be set, with all of
    them, trains within the value bound, and no digest is reserved.
    Raises, leaving the state unchanged, otherwise."""
    arity = state.dataset.arity
    banned = {uid for uid, _ in state.unlearnt} | {p.uid for p in state.pending_delete}
    present = {p.uid for p in state.dataset.points} | {p.uid for p in state.pending_add}
    for d in points:
        if len(d.x) != arity:
            raise ValueError(f"point arity {len(d.x)} != dataset arity {arity}")
        if d.uid in banned:
            raise ReAddAfterDelete(f"uid {d.uid} was deleted and cannot be re-added")
        if d.uid in present:
            raise DuplicateAdd(f"uid {d.uid} is already in the training set")
        present.add(d.uid)
    train_model(Dataset(tuple(_batch_points(state)) + tuple(points), arity), pub.config.train)
    for d in points:
        # Training checked the values' range, so each point has a digest.
        if hash_data_point(d, pub.hash_cfg) in ABSENT_TAGS:
            raise ReservedDigest(f"uid {d.uid} not admitted: its digest is a reserved constant")
    return replace(state, pending_add=state.pending_add + tuple(points))


def queue_add(state: ServerState, d: DataPoint, pub: PublicParams) -> ServerState:
    """Queue an addition.  Raises FixedPointOverflow, leaving the state
    unchanged, when training the would-be set with ``d`` crosses the value
    bound, so every admitted point stays provable."""
    try:
        return _admit(state, (d,), pub)
    except FixedPointOverflow as e:
        raise FixedPointOverflow(f"uid {d.uid} not admitted: {e}", uid=d.uid) from None


def queue_adds(
    state: ServerState, points: Sequence[DataPoint], pub: PublicParams
) -> ServerState:
    """Refuse, untrained, a batch past a compiled capacity; else queue it
    with one training run of the would-be set.  Only if that crosses the
    value bound does it admit the points one by one, so the error names
    the first point that ``queue_add`` would refuse.  Either way an error
    leaves the state unchanged."""
    check_capacity(replace(state, pending_add=state.pending_add + tuple(points)), pub)
    try:
        return _admit(state, points, pub)
    except FixedPointOverflow:
        for d in points:
            state = queue_add(state, d, pub)
        # Not reached: the last queue_add trains the same set as the batch.
        raise


def check_capacity(state: ServerState, pub: PublicParams) -> None:
    """Raise ShapeOverflow if the next update would hold more points or
    more unlearnt digests than the circuits were compiled for: no update
    could prove it, so admission refuses the request that gets there."""
    config = pub.config
    for n, cap, label in (
        (len(_batch_points(state)), config.capacity, "points"),
        (len(state.unlearnt) + len(state.pending_delete), config.unlearn_capacity,
         "unlearnt digests"),
    ):
        if n > cap:
            raise ShapeOverflow(f"{n} {label} at the next update would exceed the compiled "
                                f"capacity {cap}")


def check_point(pub: PublicParams, d: DataPoint) -> None:
    """Raise ShapeMismatch for a point of another arity than the config's,
    whose packed digest can equal that of a point of the config's arity,
    and FixedPointOverflow for a feature or label outside the value bound,
    which has no digest: neither can be a point of this setup."""
    arity = pub.config.train.arity
    if len(d.x) != arity:
        raise ShapeMismatch(f"the point has {len(d.x)} features, the setup {arity}")
    for v in (*d.x, d.y):
        check_value_range(v, pub.scale)


def queue_delete(state: ServerState, d: DataPoint) -> ServerState:
    # Idempotent: a point already unlearnt (or queued) is left alone.
    if d.uid in {uid for uid, _ in state.unlearnt} | {p.uid for p in state.pending_delete}:
        return state
    return replace(state, pending_delete=state.pending_delete + (d,))


def prove_update(
    state: ServerState, pub: PublicParams
) -> tuple[ServerState, ModelParams, Commitment, UpdateProof]:
    from .circuits import WitnessSynthesisError, data_projection, model_projection

    new_digests = [hash_data_point(d, pub.hash_cfg) for d in state.pending_delete]
    # Native training raises FixedPointOverflow where the model circuit
    # would, and both projections raise ShapeOverflow for inputs beyond
    # the capacities, before any proof exists; each proof then completes
    # its projection against the stored rows.
    dataset = Dataset(tuple(_batch_points(state)), pub.config.train.arity)
    model_given, model, digests = model_projection(pub.config, dataset)
    try:
        data_given = data_projection(pub.config, digests, state.hashed_unlearnt, new_digests)
    except WitnessSynthesisError as e:
        # Admission never queues a deleted point again, so only a state
        # written by hand makes the batch meet the unlearnt set.
        raise CorruptState(str(e)) from None
    _, h_d, h_u_prev, h_u = data_given[:4]
    if h_u_prev != state.unlearnt_root:
        # The proof would chain from a root no commitment holds.
        raise CorruptState("the unlearnt root does not match the hashed unlearnt set")
    com = Commitment(h_m=model_given[1], h_d=h_d, h_u=h_u)

    model_proof = _prove_stored(pub, pub.model_relation, model_given)
    data_proof = _prove_stored(pub, pub.data_relation, data_given)

    new_state = ServerState(
        iteration=state.iteration + 1,
        dataset=dataset,
        unlearnt=state.unlearnt + tuple(zip([d.uid for d in state.pending_delete], new_digests)),
        unlearnt_root=com.h_u,
        model=model,
    )
    return new_state, model, com, UpdateProof(model_proof, data_proof)


def _prove_stored(pub: PublicParams, rel: RelationHandle, given: list[int]) -> ProofBlob:
    """Prove the projection ``given`` against the stored relation ``rel``,
    releasing the constraints loaded for it.  A projection the stored
    rows refuse raises FingerprintMismatch naming the stored circuit and
    the first row that fails; a drifted config is one cause, which
    ``audit-setup`` checks."""
    from .r1cs import Unsatisfied

    try:
        return pub.backend.prove(rel, given)
    except Unsatisfied as e:
        where = "" if e.row is None else f" at row {e.row}"
        raise FingerprintMismatch(
            f"the {len(given)} inputs computed from the config do not satisfy the stored "
            f"circuit with fingerprint {rel.fingerprint[:12]} ({rel.circuit.num_wires} "
            f"wires){where}; the config may differ from the one setup compiled, which "
            "audit-setup checks"
        ) from None
    finally:
        rel.release()


def verify_update(
    pub: PublicParams, com_prev: Commitment, com: Commitment, proof: UpdateProof
) -> bool:
    model_inputs, data_inputs = proof.model_proof.public_inputs, proof.data_proof.public_inputs
    if model_inputs != (com.h_m, com.h_d):
        return False
    if data_inputs != (com.h_d, com_prev.h_u, com.h_u):
        return False
    return _verify_stored(pub, pub.model_relation, model_inputs, proof.model_proof) and (
        _verify_stored(pub, pub.data_relation, data_inputs, proof.data_proof)
    )


def _verify_stored(
    pub: PublicParams, rel: RelationHandle, statement: Sequence[int], blob: ProofBlob
) -> bool:
    """Verify ``blob`` against ``rel``, releasing the constraints loaded
    for it, so a verifier holds one circuit at a time."""
    try:
        return pub.backend.verify(rel, statement, blob)
    finally:
        rel.release()


def prove_unlearn(pub: PublicParams, state: ServerState, uid: int) -> UnlearnProof:
    """The membership path of uid's recorded digest in the unlearnt set.
    Raises NotMemberError if the uid was never unlearnt."""
    digest = next((h for u, h in state.unlearnt if u == uid), None)
    if digest is None:
        raise NotMemberError(f"uid {uid} was never unlearnt")
    path = compute_tree_path(digest, state.hashed_unlearnt, pub.hash_cfg)
    return UnlearnProof(path=path, iteration=state.iteration, uid=uid)


def verify_unlearn(
    pub: PublicParams, d: DataPoint, com: Commitment, proof: UnlearnProof
) -> bool:
    """Whether ``proof`` places ``d``'s digest in ``com``'s unlearnt set.
    Raises as ``check_point`` for a point that is none of this setup."""
    check_point(pub, d)
    return verify_tree_path(d, com.h_u, proof.path, pub.hash_cfg)
