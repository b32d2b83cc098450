"""The two statement circuits behind the proof of update.

* Model circuit: public (h_m, h_D), private dataset slots.  Proves the
  committed training-set root matches the private dataset and that
  running the fixed-point SGD on it yields a model hashing to h_m.

* Data circuit: public (h_D, h_U_prev, h_U), private digest sets.  Proves
  the committed roots match the private sets, that the new unlearnt root
  extends the previous chain (so the unlearnt set only ever grows), and
  that the training and unlearnt sets are disjoint: the product of every
  pairwise difference has an inverse.  One array of ``unlearn_capacity``
  slots holds the previous and the appended digests.

Each circuit is built from a ``ProtocolConfig`` alone, as rows: the
config fixes the shape, datasets are padded to its capacities with
absent slots masked by per-slot presence bits, and one trusted setup
serves every update that fits.  Every value in an absent slot is pinned
to zero, so each statement has exactly one witness.  Each circuit's
statement is its public wires, allocated first, and its free wires are
its slots' inputs, laid out slot by slot.

Setup and ``audit-setup`` build the circuits.  A prover needs only a
witness's projection (``r1cs``): the statement and the free wires, which
are the circuit's inputs.  ``model_projection`` and ``data_projection``
compute it natively, each next to the class whose allocation order it
mirrors, and raise for inputs that have no witness (ShapeOverflow for
those beyond a capacity); the stored rows complete it, which derives
every other wire.
"""

from __future__ import annotations

from typing import Sequence

from .field import BN254_SCALAR_FIELD
from .gadgets import CircuitBuilder, CircuitOps, lc_const, lc_wire
from .hashing import ABSENT_TAGS, empty_root, hash_data, hash_data_point, hash_model_weights
from .hashing import hash_unlearn
from .protocol import ProtocolConfig
from .r1cs import ConstraintSystem, gc_paused
from .training import Dataset, ModelParams, ShapeMismatch, ShapeOverflow, sgd_step_ops
from .training import train_model


class WitnessSynthesisError(ValueError):
    """A circuit's inputs have no witness.  Only ``data_projection``
    raises it: intersecting training and unlearnt sets zero the data
    circuit's disjointness product, which has no inverse."""


class ModelCircuit:
    """R1CS form of the model-update statement (h_m, h_D): rows only,
    with ``capacity`` slots of a presence bit, a uid, the features and a
    label, allocated in that order after the statement.  The rows derive
    every other wire from those inputs, and no witness satisfies them
    where native training on the present points raises
    FixedPointOverflow; ``model_projection`` computes the inputs."""

    @gc_paused()
    def __init__(self, config: ProtocolConfig):
        train = config.train
        cs = ConstraintSystem(BN254_SCALAR_FIELD)
        b = CircuitBuilder(cs, train.scale, config.hash_cfg)
        ops = CircuitOps(b)

        # Statement wires first; the body computes what each must equal.
        h_m_wire, h_d_wire = cs.alloc_public(), cs.alloc_public()

        inputs, leaves = [], []
        for _ in range(config.capacity):
            pres, uid, *xs, y = (lc_wire(cs.alloc_private()) for _ in range(train.arity + 3))
            for v in (uid, *xs, y):
                b.pin_absent(v, pres, 0)
            leaves.append(b.hash_data_point(uid, xs, y))
            inputs.append((pres, xs, y))
        presence = [pres for pres, _, _ in inputs]
        b.prefix_presence(presence)

        b.enforce_eq(b.merkle_root(leaves, presence), lc_wire(h_d_wire))

        weights = [ops.const(w) for w in train.init_values]
        lr = ops.const(train.learning_rate)
        for _ in range(train.epochs):
            for pres, xs, y in inputs:
                # An absent slot steps from zero weights on its zero data,
                # so its discarded products stay inside the value bound
                # whatever the weights are: the rows then fail exactly
                # where native training, which skips absent slots, raises.
                live = [b.select(pres, w, lc_const(0)) for w in weights]
                stepped = sgd_step_ops(ops, train.kind, train.hidden, live, xs, y, lr)
                weights = [b.select(pres, new, old) for new, old in zip(stepped, weights)]

        b.enforce_eq(b.hash_model(weights), lc_wire(h_m_wire))

        cs.finalize()
        self.cs = cs


def model_projection(
    config: ProtocolConfig, dataset: Dataset
) -> tuple[list[int], ModelParams, tuple[int, ...]]:
    """The model circuit's witness projection for ``dataset``, from native
    training and hashing: [1, h_m, h_D], then each slot's presence bit,
    uid, features and label, an absent slot all zeros; with the trained
    model and the points' digests.  Raises ShapeMismatch for another
    arity, ShapeOverflow beyond the capacity, and FixedPointOverflow,
    naming the point and the epoch, where ``train_model`` does."""
    arity, points = config.train.arity, dataset.points
    if dataset.arity != arity:
        raise ShapeMismatch(f"dataset arity {dataset.arity} != circuit arity {arity}")
    if len(points) > config.capacity:
        raise ShapeOverflow(f"{len(points)} points exceed the compiled capacity {config.capacity}")
    model = train_model(dataset, config.train)
    cfg = config.hash_cfg
    digests = tuple(hash_data_point(d, cfg) for d in points)
    statement = (hash_model_weights(model.weights, cfg), hash_data(digests, cfg))
    free = [v % BN254_SCALAR_FIELD for d in points for v in (1, d.uid, *d.x, d.y)]
    free += [0] * ((config.capacity - len(points)) * (arity + 3))
    return [1, *statement, *free], model, digests


class DataCircuit:
    """R1CS form of the dataset-update statement (h_D, h_U_prev, h_U):
    rows only.  The training digests fill ``capacity`` slots of a
    presence bit and a digest.  The unlearnt digests, previous then
    appended, fill one array of ``unlearn_capacity`` slots of a presence
    bit, a previous bit and a digest, allocated after the training slots,
    slot by slot: presence marks every digest, and the previous bits,
    which never run past it, mark the previous ones.  One chain fold
    gives both roots.  Absent digests are pinned to 0.  One ``select``
    per slot maps an absent digest to its array's ``ABSENT_TAGS``
    constant, one row per pair multiplies the pair's difference into a
    running product, and the last row, ``nonzero``'s, defines the
    product's inverse and holds only if the product is nonzero: the field
    has no zero divisors, so every pair differs.  ``data_projection``
    computes the inputs."""

    @gc_paused()
    def __init__(self, config: ProtocolConfig):
        hash_cfg = config.hash_cfg
        cs = ConstraintSystem(BN254_SCALAR_FIELD)
        b = CircuitBuilder(cs, config.train.scale, hash_cfg)

        h_d_wire, h_uprev_wire, h_u_wire = (cs.alloc_public() for _ in range(3))

        def slots(n: int, width: int) -> list[list]:
            """n slots of ``width`` inputs, allocated slot by slot, as one
            list per input."""
            wires = [[lc_wire(cs.alloc_private()) for _ in range(width)] for _ in range(n)]
            return [list(column) for column in zip(*wires)]

        d_pres, d_vals = slots(config.capacity, 2)
        u_pres, u_prev, u_vals = slots(config.unlearn_capacity, 3)
        wires = ((d_pres, d_vals), (u_pres, u_vals))
        for pres, vals in wires:
            b.prefix_presence(pres)
            for v, p in zip(vals, pres):
                b.pin_absent(v, p, 0)
        b.prefix_presence(u_prev, within=u_pres)

        b.enforce_eq(b.merkle_root(d_vals, d_pres), lc_wire(h_d_wire))
        psi_prev, psi = b.chain_root(lc_const(empty_root(hash_cfg)), u_vals, u_pres, u_prev)
        b.enforce_eq(psi_prev, lc_wire(h_uprev_wire))
        b.enforce_eq(psi, lc_wire(h_u_wire))

        # Pairwise disjointness of the training and unlearnt digests.
        d_tagged, u_tagged = (
            [b.select(p, v, lc_const(tag)) for p, v in zip(pres, vals)]
            for (pres, vals), tag in zip(wires, ABSENT_TAGS)
        )
        diffs = (b.sub(d, u) for d in d_tagged for u in u_tagged)
        product = next(diffs)
        for diff in diffs:
            product = b.mul(product, diff)
        b.nonzero(product)

        cs.finalize()
        self.cs = cs


def data_projection(
    config: ProtocolConfig,
    data: Sequence[int] = (),
    unlearnt_prev: Sequence[int] = (),
    unlearnt_add: Sequence[int] = (),
) -> list[int]:
    """The data circuit's witness projection for the training digests,
    the previous unlearnt digests and the appended ones, from native
    hashing: [1, h_D, h_U_prev, h_U], then each training slot's presence
    bit and digest, then each unlearnt slot's presence bit, previous bit
    and digest, an absent slot all zeros.  Raises ShapeOverflow when
    either set exceeds its capacity, and WitnessSynthesisError when the
    sets intersect, an absent slot reading its array's ``ABSENT_TAGS``
    constant: some pair's difference is then 0, as is the product the
    rows invert."""
    cfg, p = config.hash_cfg, BN254_SCALAR_FIELD
    data, unlearnt = tuple(data), (*unlearnt_prev, *unlearnt_add)
    tagged = []
    for items, cap, tag, label in zip(
        (data, unlearnt), (config.capacity, config.unlearn_capacity), ABSENT_TAGS,
        ("training", "unlearnt"),
    ):
        if len(items) > cap:
            raise ShapeOverflow(f"{len(items)} {label} digests exceed the compiled capacity {cap}")
        tagged.append({v % p for v in items} | ({tag} if len(items) < cap else set()))
    if not tagged[0].isdisjoint(tagged[1]):
        raise WitnessSynthesisError("training and unlearnt sets intersect")
    free = [v for d in data for v in (1, d % p)]
    free += [0] * (2 * (config.capacity - len(data)))
    previous = len(unlearnt_prev)
    free += [v for j, u in enumerate(unlearnt) for v in (1, int(j < previous), u % p)]
    free += [0] * (3 * (config.unlearn_capacity - len(unlearnt)))
    statement = (
        hash_data(data, cfg),
        hash_unlearn(unlearnt_prev, cfg),
        hash_unlearn(unlearnt, cfg),
    )
    return [1, *statement, *free]
