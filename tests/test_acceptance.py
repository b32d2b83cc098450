"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria and tolerances are pinned here; the configurations state their
own scale (circuit capacities, hash profile, backend).  The reduced-round
hash profile appears only where the property under test is independent of
the hash's cryptographic strength (completeness replay, relation-level
mutations); everything exercising the sound backend runs the default
110-round hash.
"""

import math
import random
import statistics
import time

import pytest

from conftest import data_forgery, data_slot_projection, data_witness, failing_rows, is_satisfied
from conftest import fx_decode, model_witness, needs_snark, run_completeness, satisfied_at_wire
from conftest import sigmoid_approx
from unlearn.bench import synthetic_dataset
from unlearn.circuits import ModelCircuit, WitnessSynthesisError, data_projection, model_projection
from unlearn.field import BN254_SCALAR_FIELD, ScaleConfig, fx_encode
from unlearn.game import BUILTIN_STRATEGIES, run_suite
from unlearn.hashing import (
    DataPoint,
    HashConfig,
    MembershipPath,
    compute_tree_path,
    hash2,
    hash_data_point,
    hash_unlearn,
    verify_tree_path,
)
from unlearn.proofsys import Groth16Backend, RelationHandle, WitnessCheckBackend
from unlearn.protocol import (
    ProtocolConfig,
    global_setup,
    prove_unlearn,
    prove_update,
    queue_add,
    queue_delete,
    server_init,
    verify_init,
    verify_unlearn,
    verify_update,
)
from unlearn.r1cs import Unsatisfied
from unlearn.training import Dataset, default_train_config, train_model

SCALE = ScaleConfig()
TINY_HASH = HashConfig(rounds=4)
FULL_HASH = HashConfig()


def _announce(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


# -- 1. completeness ------------------------------------------------------------


def test_criterion_1_completeness_hundred_runs():
    """100 randomized valid runs, <= 5 iterations of <= 8 points, linear
    regression, witness-check backend: zero verification failures."""
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=8,
        unlearn_capacity=8,
        backend="witness-check",
        hash_rounds=TINY_HASH.rounds,
    )
    pub = global_setup(config)
    started = time.monotonic()
    total_updates = total_unlearns = 0
    rng = random.Random("acceptance-1")
    for seed in range(100):
        iters = rng.randint(1, 5)
        report = run_completeness(pub, seed=seed, iters=iters, max_points=8)
        assert report.failures == 0, f"seed {seed}: {report}"
        assert report.init_ok
        total_updates += report.updates_verified
        total_unlearns += report.unlearns_verified
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"completeness runs took {elapsed:.1f}s"
    _announce(
        1,
        f"100 runs, {total_updates} updates and {total_unlearns} unlearning "
        f"proofs all verified in {elapsed:.1f}s",
    )


# -- 2. security game ------------------------------------------------------------


@needs_snark
def test_criterion_2_security_game_sound_backend():
    """Every builtin adversary loses across 20 seeds on the sound backend;
    removing soundness lets at least one strategy win."""
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=4,
        unlearn_capacity=4,
        backend="snark",
        hash_rounds=FULL_HASH.rounds,
    )
    started = time.monotonic()
    pub = global_setup(config)
    seeds = list(range(20))
    reports = run_suite(pub, seeds)
    losses = [r for r in reports if r.verdict == 0]
    assert len(losses) == len(reports) == 20 * len(BUILTIN_STRATEGIES)

    unsound = global_setup(config, backend=WitnessCheckBackend(check=False))
    control = run_suite(unsound, seeds=[0])
    wins = [r for r in control if r.verdict == 1]
    assert wins, "negative control must produce a win"
    elapsed = time.monotonic() - started
    assert elapsed < 600, f"game suite took {elapsed:.1f}s"
    _announce(
        2,
        f"{len(reports)} games lost by all adversaries under Groth16; "
        f"soundness removal yields wins for "
        f"{sorted({r.strategy for r in wins})} ({elapsed:.0f}s)",
    )


# -- 3. relation-level soundness ----------------------------------------------------


def test_criterion_3_exhaustive_witness_mutation():
    """On capacity-4 circuits with an absent slot in each array, every
    single-wire mutation of an honest witness breaks some constraint, and
    intersecting sets admit no satisfying witness: no inverse completes
    their projection."""
    started = time.monotonic()
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=4,
        unlearn_capacity=4,
        backend="witness-check",
        hash_rounds=TINY_HASH.rounds,
    )
    ds = synthetic_dataset(3, 1, SCALE, seed=5)
    model_cs, w = model_witness(config, ds)
    assert is_satisfied(model_cs, w)
    survivors = _mutate_all(model_cs, w)
    assert survivors == [], f"unconstrained model-circuit wires: {survivors[:5]}"
    model_wires = model_cs.num_wires

    digests = [hash_data_point(d, TINY_HASH) for d in ds.points]
    ghosts = [
        hash_data_point(DataPoint(100 + i, (fx_encode(i, SCALE),), 0), TINY_HASH)
        for i in range(4)
    ]
    data_cs, wd = data_witness(config, digests, ghosts[:2], ghosts[2:3])
    assert is_satisfied(data_cs, wd)
    survivors = _mutate_all(data_cs, wd)
    assert survivors == [], f"unconstrained data-circuit wires: {survivors[:5]}"

    # Intersecting sets: exhaustive over a small digest grid.  The native
    # projection raises, the rows refuse the product's row, the last, and
    # read row by row that row alone fails under any inverse.
    grid = [1, 2, 3, 4]
    checked = 0
    for a in grid:
        for b in grid:
            if a == b:
                continue
            for u1 in grid:
                for u2 in grid:
                    if u1 == u2:
                        continue
                    overlap = {a, b} & {u1, u2}
                    if overlap:
                        sets = ([a, b], [u1], [u2])
                        with pytest.raises(WitnessSynthesisError):
                            data_projection(config, *sets)
                        last = data_cs.num_constraints - 1
                        with pytest.raises(Unsatisfied) as refused:
                            data_cs.complete(data_slot_projection(config, *sets))
                        assert refused.value.row == last
                        for inverse in (0, 1, a - u1):
                            forged = data_forgery(config, sets, inverse)
                            assert failing_rows(data_cs, forged) == [last]
                        checked += 1
    assert checked > 0
    elapsed = time.monotonic() - started
    assert elapsed < 300, f"mutation sweep took {elapsed:.1f}s"
    _announce(
        3,
        f"mutated {model_wires - 1} model-circuit and "
        f"{data_cs.num_wires - 1} data-circuit wires with zero "
        f"survivors; {checked} overlapping-set instances unsatisfiable "
        f"({elapsed:.1f}s)",
    )


def _mutate_all(cs, witness):
    survivors = []
    values = list(witness)
    for wire in range(1, len(values)):
        original = values[wire]
        values[wire] = (original + 1) % cs.modulus
        if satisfied_at_wire(cs, tuple(values), wire):
            survivors.append(wire)
        values[wire] = original
    return survivors


# -- 4. fixed-point fidelity ----------------------------------------------------------


def test_criterion_4_fixed_point_fidelity():
    """Trained weights within 1e-3 of the float reference; the sigmoid
    surrogate within 0.05 of the true sigmoid across [-5, 5]."""
    from test_training import float_train

    rng = random.Random("acceptance-4")
    pts = [((rng.randint(-4, 4) / 4,), float(rng.choice((0, 1)))) for _ in range(16)]
    ds = Dataset(
        tuple(
            DataPoint(i, (fx_encode(x[0], SCALE),), fx_encode(y, SCALE))
            for i, (x, y) in enumerate(pts)
        ),
        1,
    )
    worst_weight = 0.0
    for kind in ("linear", "logistic"):
        cfg = default_train_config(kind, 1, epochs=1)
        fixed = train_model(ds, cfg)
        ref = float_train(kind, pts, epochs=1, lr=0.1, arity=1)
        for wf, wr in zip(fixed.weights, ref):
            err = abs(float(fx_decode(wf, SCALE)) - wr)
            worst_weight = max(worst_weight, err)
            assert err < 1e-3, f"{kind}: weight error {err}"

    worst_sigmoid = 0.0
    for i in range(1001):
        z = -5 + i / 100
        enc_z = fx_encode(round(z * SCALE.gamma) / SCALE.gamma, SCALE)
        got = float(fx_decode(sigmoid_approx(enc_z, SCALE), SCALE))
        worst_sigmoid = max(worst_sigmoid, abs(got - 1 / (1 + math.exp(-z))))
    assert worst_sigmoid <= 0.05
    _announce(
        4,
        f"max weight deviation {worst_weight:.2e} (<1e-3); max sigmoid "
        f"deviation {worst_sigmoid:.3f} (<=0.05)",
    )


# -- 5. scaling shape --------------------------------------------------------------------


@needs_snark
def test_criterion_5_linear_scaling_and_constant_verification():
    """Constraint counts over |D| in {8,16,32,64} fit a line (R^2 >= 0.99,
    doubling ratios within [1.8, 2.2]); succinct verification wall-time at
    |D|=8 vs |D|=64 within 2x."""
    np = pytest.importorskip("numpy")
    train = default_train_config("linear", 1, epochs=1)
    sizes = [8, 16, 32, 64]
    counts = []
    circuits = {}
    for size in sizes:
        config = ProtocolConfig(
            train=train, capacity=size, unlearn_capacity=1, hash_rounds=FULL_HASH.rounds
        )
        circuit = ModelCircuit(config)
        circuits[size] = (circuit.cs, model_projection(config, synthetic_dataset(size, 1, SCALE))[0])
        counts.append(circuit.cs.stats().constraint_count)

    for small, large in zip(counts, counts[1:]):
        assert 1.8 <= large / small <= 2.2

    x = np.array(sizes, dtype=float)
    y = np.array(counts, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    r2 = 1 - ((y - predicted) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    assert r2 >= 0.99, f"R^2 = {r2}"

    backend = Groth16Backend()
    verify_times = {}
    for size in (8, 64):
        cs, given = circuits[size]
        rel = RelationHandle.of(cs)
        rel.keys = backend.setup(rel)
        statement = tuple(given[1 : 1 + cs.num_public])
        blob = backend.prove(rel, given)
        assert backend.verify(rel, statement, blob)  # warmup
        samples = []
        for _ in range(9):
            t0 = time.perf_counter()
            assert backend.verify(rel, statement, blob)
            samples.append(time.perf_counter() - t0)
        # Verification does constant work at every size; min-of-N strips
        # the process-spawn jitter that dominates these few-ms calls.
        verify_times[size] = min(samples)
    ratio = max(verify_times.values()) / min(verify_times.values())
    assert ratio <= 2.0, f"verification times {verify_times} exceed 2x"
    _announce(
        5,
        f"counts {counts} (R^2={r2:.5f}); verify times "
        f"{ {k: round(v, 4) for k, v in verify_times.items()} } s, ratio "
        f"{ratio:.2f} (<=2)",
    )


# -- 6. append-only structure laws ----------------------------------------------------


def test_criterion_6_append_only_laws():
    """Algebraic append law, membership round-trips for every member up to
    |H_U| = 64, and rejection of every single-node path mutation."""
    started = time.monotonic()
    cfg = FULL_HASH
    rng = random.Random("acceptance-6")

    for trial in range(20):
        hu = [rng.randrange(BN254_SCALAR_FIELD) for _ in range(rng.randint(0, 64))]
        extra = rng.randrange(BN254_SCALAR_FIELD)
        assert hash_unlearn(hu + [extra], cfg) == hash2(hash_unlearn(hu, cfg), extra, cfg)

    points = [
        DataPoint(uid=i, x=(fx_encode(i / 8, ScaleConfig()),), y=0) for i in range(64)
    ]
    digests = [hash_data_point(p, cfg) for p in points]
    roundtrips = 0
    for size in (1, 2, 3, 5, 8, 16, 33, 64):
        hu = digests[:size]
        root = hash_unlearn(hu, cfg)
        for p, h in zip(points, hu):
            assert verify_tree_path(p, root, compute_tree_path(h, hu, cfg), cfg)
            roundtrips += 1

    mutations = 0
    root64 = hash_unlearn(digests, cfg)
    for k in (0, 21, 42, 63):
        p, path = points[k], compute_tree_path(digests[k], digests, cfg)
        for i in range(len(path.nodes)):
            nodes = list(path.nodes)
            nodes[i] = (nodes[i] + 1) % BN254_SCALAR_FIELD
            assert not verify_tree_path(p, root64, MembershipPath(tuple(nodes)), cfg)
            mutations += 1
    # Exhaustive member x position sweeps: every path position at the full
    # 64-member size on the reduced-round profile (the rejection property
    # is structural, and the quadratic sweep would otherwise dominate the
    # runtime budget), plus every position at 16 members on full rounds.
    for size, profile in ((16, cfg), (64, TINY_HASH)):
        hu = [hash_data_point(p, profile) for p in points[:size]]
        root = hash_unlearn(hu, profile)
        for p, h in zip(points, hu):
            path = compute_tree_path(h, hu, profile)
            for i in range(len(path.nodes)):
                nodes = list(path.nodes)
                nodes[i] = (nodes[i] + 1) % BN254_SCALAR_FIELD
                assert not verify_tree_path(
                    p, root, MembershipPath(tuple(nodes)), profile
                )
                mutations += 1
    elapsed = time.monotonic() - started
    _announce(
        6,
        f"append law (20 trials), {roundtrips} member round-trips, "
        f"{mutations} path mutations all rejected ({elapsed:.1f}s)",
    )


# -- 7. end-to-end sound-backend smoke --------------------------------------------------


@needs_snark
def test_criterion_7_end_to_end_snark_smoke():
    """One full protocol iteration cycle on the succinct backend: setup,
    update proofs, verification, and an unlearning round-trip all accept."""
    started = time.monotonic()
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=4,
        unlearn_capacity=4,
        backend="snark",
        hash_rounds=FULL_HASH.rounds,
    )
    pub = global_setup(config)
    state, com0, marker = server_init(pub)
    assert verify_init(pub, com0, marker)

    pts = [
        DataPoint(uid=i, x=(fx_encode(i / 4, SCALE),), y=fx_encode(i % 2, SCALE))
        for i in range(1, 4)
    ]
    for d in pts:
        state = queue_add(state, d, pub)
    state, model, com1, proof1 = prove_update(state, pub)
    assert verify_update(pub, com0, com1, proof1)

    state = queue_delete(state, pts[1])
    state, _, com2, proof2 = prove_update(state, pub)
    assert verify_update(pub, com1, com2, proof2)

    pi = prove_unlearn(pub, state, pts[1].uid)
    assert verify_unlearn(pub, pts[1], com2, pi)
    assert not verify_unlearn(pub, pts[0], com2, pi)
    elapsed = time.monotonic() - started
    _announce(
        7,
        f"setup + two proved updates + unlearning round-trip accepted on "
        f"the Groth16 backend in {elapsed:.1f}s (timing informational)",
    )
