import weakref

import pytest

from unlearn.field import ScaleConfig
from unlearn.proofsys import find_helper
from unlearn.protocol import ProtocolConfig, global_setup
from unlearn.r1cs import Unsatisfied
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


# -- reading rows one by one ------------------------------------------------------
#
# ``ConstraintSystem.complete`` is the program's one evaluator of rows.  These
# helpers read the rows through ``cs.constraints`` and ``cs.lc_value``
# instead, row by row, so tests can ask which rows fail and compare the two.


def is_satisfied(cs, witness) -> bool:
    """Whether ``witness`` is the satisfying witness its projection
    completes to, judged as provers and verifiers judge a projection:
    by ``ConstraintSystem.complete``."""
    try:
        return cs.complete(cs.project(witness)) == witness
    except Unsatisfied:
        return False


def _holds(cs, row, values) -> bool:
    a, b, c = row
    product = cs.lc_value(a, values) * cs.lc_value(b, values)
    return (product - cs.lc_value(c, values)) % cs.modulus == 0


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
    values = witness.values
    return [i for i, row in enumerate(_read(cs)[0]) if not _holds(cs, row, values)]


def rows_touching(cs, wire: int) -> list[int]:
    """The rows that read ``wire``, in increasing order."""
    return _read(cs)[1][wire]


def satisfied_at_wire(cs, witness, wire: int) -> bool:
    """Whether the rows that read ``wire`` hold: enough to judge a
    single-wire mutation of a witness that satisfied every row."""
    rows, touching = _read(cs)
    return all(_holds(cs, rows[i], witness.values) for i in touching[wire])


def statement_of(cs) -> tuple[int, ...]:
    """A built circuit's statement: the values of its public wires, which
    each circuit allocates first."""
    return tuple(cs.values[1 : 1 + cs.num_public])
