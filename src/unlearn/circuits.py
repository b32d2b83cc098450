"""The two statement circuits behind the proof of update.

* Model circuit: public (h_m, h_D), private dataset slots.  Proves the
  committed training-set root matches the private dataset and that
  running the fixed-point SGD on it yields a model hashing to h_m.

* Data circuit: public (h_D, h_U_prev, h_U), private digest sets.  Proves
  the committed roots match the private sets, that the new unlearnt root
  extends the previous chain (so the unlearnt set only ever grows), and
  that the training and unlearnt sets are disjoint.  One array of
  ``unlearn_capacity`` slots holds the previous and the appended digests.

Each circuit is built from its inputs in one pass that yields both the
constraints and the witness; the prover reads the trained model and the
statement from it.  Circuit shapes are static: datasets are padded to a
fixed capacity with dummy slots masked by per-slot presence bits, so the
constraints do not depend on the inputs and one trusted setup, built from
the empty input, serves every update that fits; inputs that do not fit
raise ShapeOverflow.  A prover that proves against the stored constraints
builds with ``values_only=True``: the same pass computes the witness and
records no rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .field import FixedPointOverflow, ScaleConfig
from .gadgets import CircuitBuilder, CircuitOps, lc_const, lc_wire
from .hashing import DataPoint, HashConfig, empty_root
from .r1cs import ConstraintSystem, Witness, gc_paused
from .training import Dataset, ModelParams, TrainConfig, overflow_at, sgd_step_ops


class ShapeMismatch(ValueError):
    """Inputs do not fit the circuit's compiled shape."""


class ShapeOverflow(ShapeMismatch):
    """Inputs exceed the circuit's compiled capacity; re-run setup with a
    larger shape."""


@dataclass(frozen=True)
class ModelShape:
    train: TrainConfig
    capacity: int
    hash_cfg: HashConfig = dc_field(default_factory=HashConfig)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ShapeMismatch("capacity must be positive")


class ModelCircuit:
    """R1CS form of the model-update statement, built with the witness for
    ``dataset`` (by default the empty one).  ``model`` is the trained
    model, ``digests`` the points' digests (the leaves under h_D) and
    ``statement`` is (h_m, h_D).  Raises ShapeOverflow when the dataset
    exceeds the capacity, ShapeMismatch when its arity differs, and
    FixedPointOverflow, naming the point and the epoch as ``train_model``
    does, when training it crosses the value bound.
    With ``values_only`` its constraint system records no rows."""

    @gc_paused()
    def __init__(
        self,
        shape: ModelShape,
        dataset: Optional[Dataset] = None,
        values_only: bool = False,
    ):
        self.shape = shape
        train = shape.train
        points = dataset.points if dataset is not None else ()
        if dataset is not None and dataset.arity != train.arity:
            raise ShapeMismatch(
                f"dataset arity {dataset.arity} != circuit arity {train.arity}"
            )
        if len(points) > shape.capacity:
            raise ShapeOverflow(
                f"{len(points)} points exceed the compiled capacity {shape.capacity}"
            )
        absent = DataPoint(0, (0,) * train.arity, 0)
        slots = points + (absent,) * (shape.capacity - len(points))
        scale = train.scale
        cs = ConstraintSystem(scale.modulus, values_only)
        b = CircuitBuilder(cs, scale, shape.hash_cfg)
        ops = CircuitOps(b)

        # Statement wires first; b.bind gives them their values below.
        self.h_m_wire = cs.alloc_public()
        self.h_d_wire = cs.alloc_public()

        presence, leaves, data = [], [], []
        for s, d in enumerate(slots):
            pres = lc_wire(cs.alloc_private(int(s < len(points))))
            uid = lc_wire(cs.alloc_private(d.uid))
            xs = [lc_wire(cs.alloc_private(x)) for x in d.x]
            y = lc_wire(cs.alloc_private(d.y))
            try:
                for v in (*xs, y):
                    b.value_range(v)
            except FixedPointOverflow as e:
                raise overflow_at(e, d.uid) from None
            presence.append(pres)
            data.append((xs, y))
            leaves.append(b.hash_data_point(uid, xs, y))
        b.prefix_presence(presence)
        self.digests = tuple(cs.lc_value(leaf) for leaf in leaves[: len(points)])

        b.bind(self.h_d_wire, b.merkle_root(leaves, presence))

        weights = [ops.const(w) for w in train.init_values]
        lr = ops.const(train.learning_rate)
        for epoch in range(1, train.epochs + 1):
            for d, pres, (xs, y) in zip(slots, presence, data):
                # An absent slot steps from zero weights on its zero data,
                # so its discarded products stay inside the value bound
                # whatever the weights are: the circuit then raises exactly
                # where native training, which skips absent slots, raises.
                live = [b.select(pres, w, lc_const(0)) for w in weights]
                try:
                    stepped = sgd_step_ops(ops, train.kind, train.hidden, live, xs, y, lr)
                except FixedPointOverflow as e:
                    raise overflow_at(e, d.uid, epoch) from None
                weights = [b.select(pres, new, old) for new, old in zip(stepped, weights)]
        self.model = ModelParams(
            train.kind, train.arity, tuple(map(cs.lc_value, weights)), train.hidden
        )

        b.bind(self.h_m_wire, b.hash_model(weights))

        cs.finalize()
        self.cs = cs
        self.builder = b

    @property
    def statement(self) -> tuple[int, int]:
        """(h_m, h_D) as computed from the inputs."""
        return self.cs.values[self.h_m_wire], self.cs.values[self.h_d_wire]

    def slack_wires(self, witness: Witness) -> set[int]:
        return _value_dependent_slack(self.builder, witness)


@dataclass(frozen=True)
class DataShape:
    data_capacity: int
    unlearn_capacity: int
    hash_cfg: HashConfig = dc_field(default_factory=HashConfig)


class DataCircuit:
    """R1CS form of the dataset-update statement, built with the witness
    for the training-set digests, the previous unlearnt digests and the
    appended ones (by default all empty).  ``statement`` is (h_D,
    h_U_prev, h_U).  The unlearnt digests, previous then appended, fill
    one array of ``unlearn_capacity`` slots under two prefixes of bits:
    presence marks every digest, and the previous bits, which never run
    past it, mark the previous ones.  One chain fold gives both roots.
    Raises ShapeOverflow when either set exceeds its capacity, and
    WitnessSynthesisError when the training set meets the unlearnt one.
    With ``values_only`` its constraint system records no rows."""

    @gc_paused()
    def __init__(
        self,
        shape: DataShape,
        hashed_data: Sequence[int] = (),
        hashed_unlearnt_prev: Sequence[int] = (),
        hashed_unlearnt_add: Sequence[int] = (),
        values_only: bool = False,
    ):
        self.shape = shape
        prev = tuple(hashed_unlearnt_prev)
        sets = (tuple(hashed_data), prev + tuple(hashed_unlearnt_add))
        caps = (shape.data_capacity, shape.unlearn_capacity)
        for items, cap, label in zip(sets, caps, ("training", "unlearnt")):
            if len(items) > cap:
                raise ShapeOverflow(
                    f"{len(items)} {label} digests exceed the compiled capacity {cap}"
                )
        cs = ConstraintSystem(shape.hash_cfg.modulus, values_only)
        scale = ScaleConfig(modulus=shape.hash_cfg.modulus)
        b = CircuitBuilder(cs, scale, shape.hash_cfg)

        self.h_d_wire = cs.alloc_public()
        self.h_uprev_wire = cs.alloc_public()
        self.h_u_wire = cs.alloc_public()

        def alloc_set(items, capacity: int):
            padded = items + (0,) * (capacity - len(items))
            pres = [lc_wire(cs.alloc_private(int(i < len(items)))) for i in range(capacity)]
            vals = [lc_wire(cs.alloc_private(v)) for v in padded]
            b.prefix_presence(pres)
            return pres, vals

        (d_pres, d_vals), (u_pres, u_vals) = map(alloc_set, sets, caps)
        u_prev = [lc_wire(cs.alloc_private(int(j < len(prev)))) for j in range(len(u_pres))]
        b.prefix_presence(u_prev, within=u_pres)

        b.bind(self.h_d_wire, b.merkle_root(d_vals, d_pres))
        psi_prev, psi = b.chain_root(lc_const(empty_root(shape.hash_cfg)), u_vals, u_pres, u_prev)
        b.bind(self.h_uprev_wire, psi_prev)
        b.bind(self.h_u_wire, psi)

        # Pairwise disjointness of the training and unlearnt digests.
        for i in range(shape.data_capacity):
            for j in range(shape.unlearn_capacity):
                active = b.mul(d_pres[i], u_pres[j])
                b.inverse_pair(b.sub(d_vals[i], u_vals[j]), active)

        cs.finalize()
        self.cs = cs
        self.builder = b

    @property
    def statement(self) -> tuple[int, int, int]:
        """(h_D, h_U_prev, h_U) as computed from the inputs."""
        v = self.cs.values
        return v[self.h_d_wire], v[self.h_uprev_wire], v[self.h_u_wire]

    def slack_wires(self, witness: Witness) -> set[int]:
        return _value_dependent_slack(self.builder, witness)


def _value_dependent_slack(b: CircuitBuilder, witness: Witness) -> set[int]:
    """Wires a mutation cannot invalidate under this particular witness:
    sign bits of zero products and inverse wires of inactive pairs."""
    slack = set()
    for prod_w, sigma_w in b.sign_wires:
        if witness.values[prod_w] == 0:
            slack.add(sigma_w)
    for active_w, inv_w in b.inverse_wires:
        if witness.values[active_w] == 0:
            slack.add(inv_w)
    return slack

