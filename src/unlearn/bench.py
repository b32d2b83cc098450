"""Constraint-count and timing benchmarks for the statement circuits.

Mirrors the protocol's evaluation methodology: synthetic single-feature
datasets of the requested sizes with 10% of points unlearnt (the unlearnt
points are never added to the training set).  Each circuit is built once
from its synthetic inputs, which yields its constraint count and its
witness together (``build_s``, both circuits), and once more for its
witness only, as ``update`` builds it (``witness_s``); the other timings
cover setup, proving and verification on the selected backend.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .field import ScaleConfig, fx_encode
from .hashing import DataPoint, HashConfig, hash_data_point
from .proofsys import RelationHandle, get_backend
from .protocol import ProtocolConfig, build_data_circuit, build_model_circuit
from .training import Dataset, TrainConfig

DEFAULT_SIZES = (10, 100)


def synthetic_dataset(size: int, arity: int, scale: ScaleConfig, seed: int = 0) -> Dataset:
    rng = random.Random(f"unlearn-bench-{seed}")
    grid = [i / 4 for i in range(-4, 5)]
    points = tuple(
        DataPoint(
            uid=i,
            x=tuple(fx_encode(rng.choice(grid), scale) for _ in range(arity)),
            y=fx_encode(rng.choice((0, 1)), scale),
        )
        for i in range(size)
    )
    return Dataset(points, arity)


@dataclass
class BenchEntry:
    size: int
    unlearn_size: int
    model_constraints: int
    data_constraints: int
    model_private_wires: int
    timings: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "unlearn_size": self.unlearn_size,
            "model_constraints": self.model_constraints,
            "data_constraints": self.data_constraints,
            "model_private_wires": self.model_private_wires,
            "timings": {k: round(v, 4) for k, v in self.timings.items()},
        }


def bench_sizes(
    sizes,
    train_template: TrainConfig,
    hash_cfg: HashConfig,
    backend_name: str = "witness-check",
    prove: bool = True,
    seed: int = 0,
) -> list[BenchEntry]:
    entries = []
    scale = train_template.scale
    for size in sizes:
        unlearn_size = max(1, size // 10)
        config = ProtocolConfig(
            train=train_template,
            capacity=size,
            unlearn_capacity=unlearn_size,
            backend=backend_name,
            hash_cfg=hash_cfg,
        )
        dataset = synthetic_dataset(size, train_template.arity, scale, seed)
        # The unlearnt points go straight to the unlearnt set.
        ghosts = synthetic_dataset(unlearn_size, train_template.arity, scale, seed + 1)
        unlearnt = [
            hash_data_point(DataPoint(10**9 + g.uid, g.x, g.y), hash_cfg)
            for g in ghosts.points
        ]
        timings: dict[str, float] = {}

        t0 = time.perf_counter()
        model_circuit = build_model_circuit(config, dataset)
        data_circuit = build_data_circuit(config, model_circuit.digests, (), unlearnt)
        timings["build_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        build_data_circuit(
            config,
            build_model_circuit(config, dataset, values_only=True).digests,
            (),
            unlearnt,
            values_only=True,
        )
        timings["witness_s"] = time.perf_counter() - t0

        entry = BenchEntry(
            size=size,
            unlearn_size=unlearn_size,
            model_constraints=model_circuit.cs.stats().constraint_count,
            data_constraints=data_circuit.cs.stats().constraint_count,
            model_private_wires=model_circuit.cs.stats().private_count,
            timings=timings,
        )
        entries.append(entry)
        if not prove:
            continue

        backend = get_backend(backend_name)
        model_rel = RelationHandle.of(model_circuit.cs)
        data_rel = RelationHandle.of(data_circuit.cs)
        t0 = time.perf_counter()
        model_setup = backend.setup(model_rel)
        data_setup = backend.setup(data_rel)
        timings["setup_s"] = time.perf_counter() - t0

        model_statement, model_witness = model_circuit.statement, model_circuit.cs.witness()
        data_statement, data_witness = data_circuit.statement, data_circuit.cs.witness()
        t0 = time.perf_counter()
        model_proof = backend.prove(model_rel, model_setup, model_statement, model_witness)
        timings["model_prove_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        data_proof = backend.prove(data_rel, data_setup, data_statement, data_witness)
        timings["data_prove_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        ok_m = backend.verify(model_rel, model_setup, model_statement, model_proof)
        timings["model_verify_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        ok_d = backend.verify(data_rel, data_setup, data_statement, data_proof)
        timings["data_verify_s"] = time.perf_counter() - t0
        timings["verified"] = float(ok_m and ok_d)
    return entries
