import functools
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest

from unlearn.bench import random_point
from unlearn.circuits import DataCircuit, ModelCircuit
from unlearn.circuits import data_projection, model_projection
from unlearn.field import BN254_SCALAR_FIELD, FixedPointOverflow, NativeOps, ScaleConfig
from unlearn.field import sigmoid_poly, signed_repr
from unlearn.gadgets import CircuitBuilder, lc_const, lc_wire
from unlearn.hashing import DataPoint, HashConfig, hash_data, hash_data_point, hash_unlearn
from unlearn.hashing import round_constants
from unlearn.proofsys import find_helper
from unlearn.protocol import ProtocolConfig, PublicParams, global_setup, prove_unlearn
from unlearn.protocol import prove_update, queue_add, queue_delete, server_init
from unlearn.protocol import verify_init, verify_unlearn, verify_update
from unlearn.r1cs import ConstraintSystem, Unsatisfied
from unlearn.training import default_train_config

# Reduced-round hash profile: structurally identical to the default, an
# order of magnitude cheaper.  Fine wherever the property under test does
# not depend on the hash's cryptographic strength.
TINY_ROUNDS = 4


@pytest.fixture(scope="session")
def scale():
    return ScaleConfig()


@pytest.fixture(scope="session")
def fast_pub():
    """Capacity-8 witness-check protocol: shared by protocol/game/CLI tests."""
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=8,
        unlearn_capacity=8,
        backend="witness-check",
        hash_rounds=TINY_ROUNDS,
    )
    return global_setup(config)


needs_snark = pytest.mark.skipif(
    find_helper() is None,
    reason="unlearn-groth16 helper not built (cargo build --release in native/groth16)",
)


# -- fixed-point values read back ---------------------------------------------------


def fx_decode(v: int, cfg: ScaleConfig) -> Fraction:
    """The rational an encoded fixed-point value stands for."""
    return Fraction(signed_repr(v, cfg), cfg.gamma)


def sigmoid_approx(z: int, cfg: ScaleConfig) -> int:
    """The native cubic sigmoid surrogate at the encoded value ``z``."""
    return sigmoid_poly(NativeOps(cfg), z)


# -- completeness driver -------------------------------------------------------------


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
    arity, scale = pub.config.train.arity, pub.scale
    capacity, unlearn_capacity = pub.config.capacity, pub.config.unlearn_capacity

    state, com, marker = server_init(pub)
    init_ok = verify_init(pub, com, marker)
    failures = 0 if init_ok else 1

    next_uid = 0
    added = deleted = updates_ok = unlearns_ok = 0
    unlearned_points: list[DataPoint] = []

    for _ in range(iters):
        live = list(state.dataset.points)
        n_add = rng.randint(0, max(0, min(capacity - len(live), max_points)))
        batch_add = []
        for _ in range(n_add):
            d = random_point(rng, next_uid, arity, scale)
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
            batch_del.append(random_point(rng, next_uid, arity, scale))
            next_uid += 1
        for d in batch_del:
            state = queue_delete(state, d)
            deleted += 1

        state, _, next_com, proof = prove_update(state, pub)
        ok = verify_update(pub, com, next_com, proof)
        updates_ok += ok
        failures += not ok
        com = next_com

        for d in batch_del:
            ok = verify_unlearn(pub, d, com, prove_unlearn(pub, state, d.uid))
            unlearns_ok += ok
            failures += not ok
            unlearned_points.append(d)

        if unlearned_points and rng.random() < 0.5:
            # Old deletions stay provable against the latest commitment.
            d = rng.choice(unlearned_points)
            ok = verify_unlearn(pub, d, com, prove_unlearn(pub, state, d.uid))
            unlearns_ok += ok
            failures += not ok

    return CompletenessReport(
        seed, iters, added, deleted, init_ok, updates_ok, unlearns_ok, failures
    )


# -- witnesses from the rows ---------------------------------------------------------


def project(cs, witness) -> list[int]:
    """What ``cs.complete`` rebuilds the wire values ``witness`` from: the
    constant, the statement, then the free wires in increasing order."""
    free = set(cs.free_wires())
    return [v for w, v in enumerate(witness) if w <= cs.num_public or w in free]


def gadget_witness(build, inputs, rounds=TINY_ROUNDS):
    """Allocate ``inputs`` as free private wires, call ``build(builder,
    *wires)`` with each wire as a linear combination, finalize, and
    complete [1, *inputs]: the gadget's rows derive every other wire.
    Returns the system, the completed witness and ``build``'s result."""
    scale = ScaleConfig()
    cs = ConstraintSystem(scale.modulus)
    builder = CircuitBuilder(cs, scale, HashConfig(rounds))
    wires = [lc_wire(cs.alloc_private()) for _ in inputs]
    out = build(builder, *wires)
    cs.finalize()
    return cs, tuple(cs.complete([1, *(v % cs.modulus for v in inputs)])), out


class RowByRowBuilder(CircuitBuilder):
    """The reference for the gadgets that write records: ``bits`` and
    ``mimc_permute`` write each row through ``ConstraintSystem.enforce``,
    and ``mul`` builds its C through ``sub``.  ``fx_mul`` and the gadgets
    above them are inherited, so they call these."""

    def mul(self, a, b, plus={}):
        w = self.cs.alloc_private()
        self.cs.enforce(a, b, self.sub(lc_wire(w), plus))
        return lc_wire(w)

    def bits(self, a, width):
        cs = self.cs
        wires = [cs.alloc_private() for _ in range(width)]
        cs.enforce(a, lc_const(1), {w: 1 << i for i, w in enumerate(wires)})
        for w in wires:
            self.enforce_boolean(lc_wire(w))
        return wires

    def mimc_permute(self, x, key):
        t = x
        for c in round_constants(self.hash_cfg.rounds):
            u = self.add(self.add(t, key), lc_const(c))
            u2 = self.mul(u, u)
            u4 = self.mul(u2, u2)
            t = self.mul(u4, u)
        return self.add(t, key)


@functools.cache
def circuit_rows(circuit, config) -> ConstraintSystem:
    """``circuit(config)``'s rows, built once per config as setup builds
    them: they do not depend on any input."""
    return circuit(config).cs


def model_witness(config, dataset):
    """The model circuit's rows and the witness they complete from the
    native projection for ``dataset``."""
    cs = circuit_rows(ModelCircuit, config)
    return cs, tuple(cs.complete(model_projection(config, dataset)[0]))


def data_witness(config, *sets):
    """The data circuit's rows and the witness they complete from the
    native projection for the digest sets (training, previous unlearnt,
    appended)."""
    cs = circuit_rows(DataCircuit, config)
    return cs, tuple(cs.complete(data_projection(config, *sets)))


def model_slot_projection(config, dataset, h_m=0) -> list[int]:
    """A model projection with ``dataset``'s slot inputs, laid out as
    ``model_projection`` lays them out but whether or not native training
    accepts them: the given h_m, and the native h_D, or 0 where a value
    has no digest."""
    cfg = config.hash_cfg
    try:
        h_d = hash_data([hash_data_point(d, cfg) for d in dataset.points], cfg)
    except FixedPointOverflow:
        h_d = 0
    slots = [v % BN254_SCALAR_FIELD for d in dataset.points for v in (1, d.uid, *d.x, d.y)]
    slots += [0] * ((config.capacity - len(dataset.points)) * (dataset.arity + 3))
    return [1, h_m % BN254_SCALAR_FIELD, h_d, *slots]


def data_slot_projection(config, data, prev, add) -> list[int]:
    """A data projection for the digest sets, laid out as
    ``data_projection`` lays it out but whether or not they are disjoint,
    with the native roots."""
    cfg, p = config.hash_cfg, BN254_SCALAR_FIELD
    unlearnt = [*prev, *add]
    given = [1, hash_data(data, cfg), hash_unlearn(prev, cfg), hash_unlearn(unlearnt, cfg)]
    given += [v for d in data for v in (1, d % p)] + [0] * (2 * (config.capacity - len(data)))
    given += [v for j, u in enumerate(unlearnt) for v in (1, int(j < len(prev)), u % p)]
    return given + [0] * (3 * (config.unlearn_capacity - len(unlearnt)))


@functools.cache
def open_data_rows(config) -> ConstraintSystem:
    """The data circuit's rows without its last, the nonzero gadget's
    product * v = 1, which defines the product's inverse v, the last wire:
    they derive every other wire of any digest sets, intersecting ones
    included."""
    with mock.patch.object(CircuitBuilder, "nonzero", lambda b, a: None):
        return DataCircuit(config).cs


def data_forgery(config, sets, v) -> tuple[int, ...]:
    """A data witness of the digest sets, disjoint or not, with ``v`` as
    the product's inverse: every other wire is derived from the sets by
    the rows before the product's inverse row."""
    witness = tuple(open_data_rows(config).complete(data_slot_projection(config, *sets)))
    return witness + (v % BN254_SCALAR_FIELD,)


def is_sum_row(row) -> bool:
    """Whether ``row`` is a bit decomposition's sum row, a * 1 = sum 2^i
    b_i, as ``CircuitBuilder.bits`` writes it."""
    _, b, c = row
    return b == {0: 1} and len(c) > 1 and list(c.values()) == [1 << i for i in range(len(c))]


# -- reading rows one by one ------------------------------------------------------
#
# ``ConstraintSystem.complete`` is the program's one evaluator of rows.  These
# helpers read the rows through ``cs.constraints`` and ``lc_value`` instead,
# row by row, so tests can ask which rows fail and compare the two.


def lc_value(cs, lc, values) -> int:
    """Value of a linear combination under the wire values ``values``."""
    return sum(c * values[w] for w, c in lc.items()) % cs.modulus


def is_satisfied(cs, witness) -> bool:
    """Whether ``witness`` is the satisfying witness its projection
    completes to, judged as provers and verifiers judge a projection:
    by ``ConstraintSystem.complete``."""
    try:
        return tuple(cs.complete(project(cs, witness))) == tuple(witness)
    except Unsatisfied:
        return False


def _holds(cs, row, values) -> bool:
    a, b, c = row
    product = lc_value(cs, a, values) * lc_value(cs, b, values)
    return (product - lc_value(cs, c, values)) % cs.modulus == 0


# cs -> its rows, then the rows that read each wire.  Rows are only ever
# appended, so a system with as many rows as it had when read is unchanged.
_READ = weakref.WeakKeyDictionary()


def _read(cs) -> tuple[list, list[list[int]]]:
    read = _READ.get(cs)
    if read is None or len(read[0]) != cs.num_constraints:
        rows = list(cs.constraints)
        touching = [[] for _ in range(cs.num_wires)]
        for i, row in enumerate(rows):
            for w in set().union(*row):
                touching[w].append(i)
        read = _READ[cs] = (rows, touching)
    return read


def failing_rows(cs, witness) -> list[int]:
    """Every row ``witness`` fails, each evaluated on its own."""
    return [i for i, row in enumerate(_read(cs)[0]) if not _holds(cs, row, witness)]


def rows_touching(cs, wire: int) -> list[int]:
    """The rows that read ``wire``, in increasing order."""
    return _read(cs)[1][wire]


def satisfied_at_wire(cs, witness, wire: int) -> bool:
    """Whether the rows that read ``wire`` hold: enough to judge a
    single-wire mutation of a witness that satisfied every row."""
    rows, touching = _read(cs)
    return all(_holds(cs, rows[i], witness) for i in touching[wire])


def defining_rows(cs) -> dict[int, tuple[int, int]]:
    """The rows that define wires, read one by one through
    ``cs.constraints`` by the ``r1cs`` docstring's three kinds, as {row:
    (first wire, n)}: n = 1 for a row whose C ends in one new wire with
    coefficient 1, n >= 2 for one whose C ends in n new consecutive wires
    with coefficients 2^0 ... 2^(n-1), n below the modulus's bit length,
    and n = 0 for a row that inverts: C exactly the constant 1 and B
    exactly one new wire with coefficient 1.  A wire is new when it is
    above every wire of the row's A and B, of every earlier row and of
    the statement.  No slices and no blocks: the reference for the pass
    ``complete`` walks by."""
    out, top = {}, cs.num_public
    for i, (a, b, c) in enumerate(_read(cs)[0]):
        top = max(top, 0, *a)
        [(v, one)] = b.items() if len(b) == 1 else [(0, 0)]
        if c == {0: 1} and one == 1 and v > top:
            out[i] = (v, 0)
        top = max(top, 0, *b)
        if not c or max(c) <= top:
            continue
        terms = sorted(c.items())
        w, last = terms[-1]
        n = last.bit_length()
        if last == 1 << (n - 1) and n < cs.modulus.bit_length() and len(terms) >= n:
            first = w - n + 1
            if terms[-n:] == [(first + k, 1 << k) for k in range(n)] and first > top:
                out[i] = (first, n)
        top = w
    return out


def free_wires(cs) -> list[int]:
    """The private wires no row defines (``defining_rows``), in order."""
    defined = set()
    for w, n in defining_rows(cs).values():
        defined.update(range(w, w + max(n, 1)))
    return [w for w in range(1 + cs.num_public, cs.num_wires) if w not in defined]


def walk_rows(cs, given) -> list[int]:
    """What ``cs.complete(given)`` returns or raises, for ``given`` of the
    projection's length, computed one row at a time through
    ``cs.constraints``: the free wires take ``given``'s values, each
    defining row assigns its wires as ``complete``'s docstring states,
    and every other row must hold on its own, in row order.  No row is
    skipped and no wire computed natively: the reference for the walk
    over records."""
    p, placed = cs.modulus, 1 + cs.num_public
    free = free_wires(cs)
    if len(given) != placed + len(free) or given[0] != 1:
        raise Unsatisfied(None)
    z = [0] * cs.num_wires
    z[:placed] = given[:placed]
    for w, v in zip(free, given[placed:]):
        z[w] = v
    defining = defining_rows(cs)
    for i, row in enumerate(_read(cs)[0]):
        if i not in defining:
            if not _holds(cs, row, z):
                raise Unsatisfied(i)
            continue
        a, b, c = row
        w, n = defining[i]
        if not n:
            value = lc_value(cs, a, z)
            if not value:
                raise Unsatisfied(i)
            z[w] = pow(value, -1, p)
            continue
        # The row's own wires are still 0 in C.
        value = (lc_value(cs, a, z) * lc_value(cs, b, z) - lc_value(cs, c, z)) % p
        if n == 1:
            z[w] = value
        elif value >> n:
            raise Unsatisfied(i)
        else:
            z[w:w + n] = [value >> k & 1 for k in range(n)]
    return z


def walk_outcome(walk, cs, given):
    """``walk(cs, given)``'s list, or the row its Unsatisfied names."""
    try:
        return walk(cs, given)
    except Unsatisfied as e:
        return ("unsatisfied", e.row)


def statement_of(cs, witness) -> tuple[int, ...]:
    """A completed witness's statement: the values of its public wires,
    which each circuit allocates first."""
    return tuple(witness[1 : 1 + cs.num_public])
