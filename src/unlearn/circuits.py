"""The two statement circuits behind the proof of update.

* Model circuit: public (h_m, h_D), private dataset slots.  Proves the
  committed training-set root matches the private dataset and that
  replaying the fixed-point SGD on it yields a model hashing to h_m.

* Data circuit: public (h_D, h_U_prev, h_U), private digest sets.  Proves
  the committed roots match the private sets, that the new unlearnt root
  extends the previous chain (so the unlearnt set only ever grows), and
  that the training and unlearnt sets are disjoint.

Circuit shapes are static: datasets are padded to a fixed capacity with
dummy slots masked by per-slot presence bits, so one trusted setup serves
every update that fits.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import ScaleConfig
from .gadgets import CircuitBuilder, CircuitOps, lc_const, lc_wire
from .hashing import HashConfig
from .r1cs import ConstraintSystem, Witness
from .training import Dataset, TrainConfig, sgd_step_ops


class ShapeMismatch(ValueError):
    """Inputs do not fit the circuit's compiled shape."""


def _statement_binder(cs, box: list):
    """Allocate a public wire whose value copies an internal combination.

    The combination only exists once the circuit body is built, so the
    caller appends it to ``box`` later and the hint runs in the deferred
    second synthesis pass.  The equality constraint binding the wire is
    added separately by the builder.
    """
    return cs.alloc_public(hint=lambda vs: cs.lc_value(box[0], vs), deferred=True)


@dataclass(frozen=True)
class ModelShape:
    train: TrainConfig
    capacity: int
    hash_cfg: HashConfig = dc_field(default_factory=HashConfig)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ShapeMismatch("capacity must be positive")


class ModelCircuit:
    """R1CS form of the model-update statement plus witness synthesis."""

    def __init__(self, shape: ModelShape):
        self.shape = shape
        scale = shape.train.scale
        cs = ConstraintSystem(scale.modulus)
        b = CircuitBuilder(cs, scale, shape.hash_cfg)
        ops = CircuitOps(b)

        # Statement wires first; their values are bound below.
        h_m_lc_box: list = []
        h_d_lc_box: list = []
        self.h_m_wire = _statement_binder(cs, h_m_lc_box)
        self.h_d_wire = _statement_binder(cs, h_d_lc_box)

        arity = shape.train.arity
        presence, leaves, slots = [], [], []
        for s in range(shape.capacity):
            pres = lc_wire(cs.alloc_private(name=f"present_{s}"))
            uid = lc_wire(cs.alloc_private(name=f"uid_{s}"))
            xs = [lc_wire(cs.alloc_private(name=f"x_{s}_{k}")) for k in range(arity)]
            y = lc_wire(cs.alloc_private(name=f"y_{s}"))
            for v in (*xs, y):
                b.value_range(v)
            presence.append(pres)
            slots.append((xs, y))
            leaves.append(b.hash_data_point(uid, xs, y))
        b.prefix_presence(presence)

        root = b.merkle_root(leaves, presence)
        b.enforce_eq(root, lc_wire(self.h_d_wire))
        h_d_lc_box.append(root)

        weights = [ops.const(w) for w in shape.train.init_values]
        lr = ops.const(shape.train.learning_rate)
        for _ in range(shape.train.epochs):
            for pres, (xs, y) in zip(presence, slots):
                # An absent slot steps from zero weights on its zero data,
                # so its discarded products stay inside the value bound
                # whatever the weights are: the circuit then fails exactly
                # where native training, which skips absent slots, raises.
                live = [b.select(pres, w, lc_const(0)) for w in weights]
                stepped = sgd_step_ops(
                    ops, shape.train.kind, shape.train.hidden, live, xs, y, lr
                )
                weights = [b.select(pres, new, old) for new, old in zip(stepped, weights)]

        model_hash = b.hash_model(weights)
        b.enforce_eq(model_hash, lc_wire(self.h_m_wire))
        h_m_lc_box.append(model_hash)

        cs.finalize()
        self.cs = cs
        self.builder = b

    def synthesize(self, dataset: Dataset) -> Witness:
        shape = self.shape
        if dataset.arity != shape.train.arity:
            raise ShapeMismatch(
                f"dataset arity {dataset.arity} != circuit arity {shape.train.arity}"
            )
        if len(dataset) > shape.capacity:
            raise ShapeMismatch(
                f"{len(dataset)} points exceed circuit capacity {shape.capacity}"
            )
        inputs: dict[str, int] = {}
        for s in range(shape.capacity):
            if s < len(dataset.points):
                d = dataset.points[s]
                inputs[f"present_{s}"] = 1
                inputs[f"uid_{s}"] = d.uid
                for k, x in enumerate(d.x):
                    inputs[f"x_{s}_{k}"] = x
                inputs[f"y_{s}"] = d.y
            else:
                inputs[f"present_{s}"] = 0
                inputs[f"uid_{s}"] = 0
                for k in range(shape.train.arity):
                    inputs[f"x_{s}_{k}"] = 0
                inputs[f"y_{s}"] = 0
        return self.cs.synthesize(inputs)

    def statement(self, witness: Witness) -> tuple[int, int]:
        """(h_m, h_D) as computed by an honest witness."""
        return witness.values[self.h_m_wire], witness.values[self.h_d_wire]

    def slack_wires(self, witness: Witness) -> set[int]:
        return _value_dependent_slack(self.builder, witness)


@dataclass(frozen=True)
class DataShape:
    data_capacity: int
    unlearn_capacity: int
    add_capacity: int
    hash_cfg: HashConfig = dc_field(default_factory=HashConfig)


class DataCircuit:
    """R1CS form of the dataset-update statement plus witness synthesis."""

    def __init__(self, shape: DataShape):
        self.shape = shape
        cs = ConstraintSystem(shape.hash_cfg.modulus)
        scale = ScaleConfig(modulus=shape.hash_cfg.modulus)
        b = CircuitBuilder(cs, scale, shape.hash_cfg)

        h_d_box: list = []
        h_uprev_box: list = []
        h_u_box: list = []
        self.h_d_wire = _statement_binder(cs, h_d_box)
        self.h_uprev_wire = _statement_binder(cs, h_uprev_box)
        self.h_u_wire = _statement_binder(cs, h_u_box)

        def alloc_set(prefix: str, capacity: int):
            pres = [lc_wire(cs.alloc_private(name=f"{prefix}_present_{i}")) for i in range(capacity)]
            vals = [lc_wire(cs.alloc_private(name=f"{prefix}_{i}")) for i in range(capacity)]
            b.prefix_presence(pres)
            return pres, vals

        d_pres, d_vals = alloc_set("hd", shape.data_capacity)
        u_pres, u_vals = alloc_set("huprev", shape.unlearn_capacity)
        a_pres, a_vals = alloc_set("huadd", shape.add_capacity)

        root = b.merkle_root(d_vals, d_pres)
        b.enforce_eq(root, lc_wire(self.h_d_wire))
        h_d_box.append(root)

        psi_prev = b.chain_root(lc_const(_empty(b)), u_vals, u_pres)
        b.enforce_eq(psi_prev, lc_wire(self.h_uprev_wire))
        h_uprev_box.append(psi_prev)

        psi = b.chain_root(psi_prev, a_vals, a_pres)
        b.enforce_eq(psi, lc_wire(self.h_u_wire))
        h_u_box.append(psi)

        # Pairwise disjointness of the training digests against both the
        # previous and the newly appended unlearnt digests.
        for i in range(shape.data_capacity):
            for pres, vals in ((u_pres, u_vals), (a_pres, a_vals)):
                for j in range(len(vals)):
                    active = b.mul(d_pres[i], pres[j])
                    b.inverse_pair(b.sub(d_vals[i], vals[j]), active)

        cs.finalize()
        self.cs = cs
        self.builder = b

    def synthesize(self, hashed_data, hashed_unlearnt_prev, hashed_unlearnt_add) -> Witness:
        shape = self.shape
        caps = (shape.data_capacity, shape.unlearn_capacity, shape.add_capacity)
        sets = (list(hashed_data), list(hashed_unlearnt_prev), list(hashed_unlearnt_add))
        names = ("hd", "huprev", "huadd")
        inputs: dict[str, int] = {}
        for cap, items, prefix in zip(caps, sets, names):
            if len(items) > cap:
                raise ShapeMismatch(f"{len(items)} digests exceed {prefix} capacity {cap}")
            for i in range(cap):
                inputs[f"{prefix}_present_{i}"] = 1 if i < len(items) else 0
                inputs[f"{prefix}_{i}"] = items[i] if i < len(items) else 0
        return self.cs.synthesize(inputs)

    def statement(self, witness: Witness) -> tuple[int, int, int]:
        """(h_D, h_U_prev, h_U) as computed by an honest witness."""
        v = witness.values
        return v[self.h_d_wire], v[self.h_uprev_wire], v[self.h_u_wire]

    def slack_wires(self, witness: Witness) -> set[int]:
        return _value_dependent_slack(self.builder, witness)


def _empty(b: CircuitBuilder) -> int:
    from .hashing import empty_root

    return empty_root(b.hash_cfg)


def _value_dependent_slack(b: CircuitBuilder, witness: Witness) -> set[int]:
    """Wires a mutation cannot invalidate under this particular witness:
    sign bits of zero products and inverse hints of inactive pairs."""
    slack = set()
    for prod_w, sigma_w in b.sign_wires:
        if witness.values[prod_w] == 0:
            slack.add(sigma_w)
    for active_w, inv_w in b.inverse_wires:
        if witness.values[active_w] == 0:
            slack.add(inv_w)
    return slack

