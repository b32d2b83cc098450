"""Constraint counts and end-to-end timings of the protocol at given sizes.

Mirrors the protocol's evaluation methodology: synthetic single-feature
datasets of the requested sizes with 10% of points unlearnt (the unlearnt
points are never added to the training set).  Each size runs what the
commands run, in a temporary state directory: ``setup`` (``global_setup``
and saving ``pub/``, ``setup_s``), one ``update`` that adds the dataset
and unlearns the other points, proving against the stored circuits
(``update_s``), and ``verify-update`` from the stored parameters
(``verify_s``, with ``verified``).  Both later steps load ``pub/`` as the
commands do, with its SHA-256-checked circuit exports.  The constraint,
private-wire and nonzero-term counts are those of the circuits
``global_setup`` built, with their free wires, whose values are what a
witness-check proof carries; ``update_proof_bytes`` is the length of the
update-proof envelope ``update`` would write.
"""

from __future__ import annotations

import random
import tempfile
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Optional

from .field import ScaleConfig, fx_encode
from .hashing import DataPoint
from .protocol import ProtocolConfig, global_setup, prove_update, server_init, verify_update
from .serialize import StateDir, json_bytes, update_proof_to_dict
from .training import Dataset

DEFAULT_SIZES = (10, 100)


def random_point(rng: random.Random, uid: int, arity: int, scale: ScaleConfig) -> DataPoint:
    """A point of ``arity`` features on the quarter grid in [-1, 1] and a
    0/1 label, drawn from ``rng`` in that order."""
    grid = [i / 4 for i in range(-4, 5)]
    x = tuple(fx_encode(rng.choice(grid), scale) for _ in range(arity))
    return DataPoint(uid=uid, x=x, y=fx_encode(rng.choice((0, 1)), scale))


def synthetic_dataset(size: int, arity: int, scale: ScaleConfig, seed: int = 0) -> Dataset:
    rng = random.Random(f"unlearn-bench-{seed}")
    return Dataset(tuple(random_point(rng, i, arity, scale) for i in range(size)), arity)


@dataclass
class BenchEntry:
    size: int
    unlearn_size: int
    model_constraints: int
    data_constraints: int
    model_private_wires: int
    data_private_wires: int
    # Nonzero entries of A, B and C: the prover's and the witness-check
    # verifier's work grows with these as well as with the constraints.
    model_terms: int
    data_terms: int
    # The private wires no row defines: what a witness-check proof carries.
    model_free_wires: int
    data_free_wires: int
    # None when only the counts were taken.
    update_proof_bytes: Optional[int] = None
    timings: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["timings"] = {k: round(v, 4) for k, v in self.timings.items()}
        return out


def bench_sizes(
    sizes, config: ProtocolConfig, counts_only: bool = False, seed: int = 0
) -> list[BenchEntry]:
    """One entry per size, with ``config``'s training, hashing and backend
    at capacity ``size`` and unlearn capacity ``size // 10`` (at least 1).
    ``counts_only`` stops after the setup, on the witness-check backend
    (counts do not depend on the backend), and records no timings."""
    entries = []
    for size in sizes:
        sized = replace(config, capacity=size, unlearn_capacity=max(1, size // 10))
        if counts_only:
            sized = replace(sized, backend="witness-check")
        with tempfile.TemporaryDirectory(prefix="unlearn-bench-") as tmp:
            entries.append(_bench_size(sized, StateDir(tmp), counts_only, seed))
    return entries


def _bench_size(
    config: ProtocolConfig, store: StateDir, counts_only: bool, seed: int
) -> BenchEntry:
    t0 = time.perf_counter()
    pub = global_setup(config, setup_store=store.setup_store)
    store.save_params(pub)
    setup_s = time.perf_counter() - t0
    model, data = pub.model_relation.circuit.stats(), pub.data_relation.circuit.stats()
    entry = BenchEntry(
        size=config.capacity,
        unlearn_size=config.unlearn_capacity,
        model_constraints=model.constraint_count,
        data_constraints=data.constraint_count,
        model_private_wires=model.private_count,
        data_private_wires=data.private_count,
        model_terms=model.term_count,
        data_terms=data.term_count,
        model_free_wires=len(pub.model_relation.circuit.free_wires()),
        data_free_wires=len(pub.data_relation.circuit.free_wires()),
    )
    if counts_only:
        return entry
    state, com_0, _ = server_init(pub)
    # Update and verify-update load the stored parameters, as the commands do.
    del pub

    arity, scale = config.train.arity, config.train.scale
    dataset = synthetic_dataset(config.capacity, arity, scale, seed)
    ghosts = synthetic_dataset(config.unlearn_capacity, arity, scale, seed + 1)
    # Unlearnt points that were never added, under uids no added point has.
    unlearnt = tuple(DataPoint(10**9 + g.uid, g.x, g.y) for g in ghosts.points)
    state = replace(state, pending_add=dataset.points, pending_delete=unlearnt)

    t0 = time.perf_counter()
    _, _, com, proof = prove_update(state, store.load_public_params())
    update_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ok = verify_update(store.load_public_params(), com_0, com, proof)
    verify_s = time.perf_counter() - t0
    entry.update_proof_bytes = len(json_bytes(update_proof_to_dict(proof, scale)))
    entry.timings = {
        "setup_s": setup_s,
        "update_s": update_s,
        "verify_s": verify_s,
        "verified": float(ok),
    }
    return entry
