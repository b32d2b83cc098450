import functools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TINY_ROUNDS, failing_rows, is_satisfied, rows_touching, satisfied_at_wire
from unlearn.circuits import DataCircuit, ModelCircuit
from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.field import fx_encode
from unlearn.hashing import DataPoint, hash_data_point
from unlearn.protocol import ProtocolConfig
from unlearn.r1cs import (
    MAGIC,
    BuildPhaseClosed,
    ConstraintSystem,
    RowsNotRecorded,
    Unsatisfied,
    Witness,
)
from unlearn.training import Dataset, default_train_config


def squaring_system():
    cs = ConstraintSystem(P)
    y = cs.alloc_public()
    x = cs.alloc_private(name="x")
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    return cs


def test_squaring_constraint():
    cs = squaring_system()
    assert is_satisfied(cs, Witness((1, 9, 3)))
    assert not is_satisfied(cs, Witness((1, 10, 3)))


def test_boolean_gadget():
    cs = ConstraintSystem(P)
    b = cs.alloc_private(name="b")
    cs.enforce({b: 1}, {0: 1, b: -1}, {})
    cs.finalize()
    assert is_satisfied(cs, Witness((1, 0)))
    assert is_satisfied(cs, Witness((1, 1)))
    assert not is_satisfied(cs, Witness((1, 2)))


def test_empty_system_satisfied():
    cs = ConstraintSystem(P)
    cs.alloc_private(name="x")
    cs.finalize()
    assert is_satisfied(cs, Witness((1, 42)))
    assert not is_satisfied(cs, Witness((1,)))  # wrong length
    assert not is_satisfied(cs, Witness((2, 42)))  # constant wire must be 1


def test_build_phase_closes():
    cs = squaring_system()
    with pytest.raises(BuildPhaseClosed):
        cs.alloc_private()
    with pytest.raises(BuildPhaseClosed):
        cs.enforce({}, {}, {})


def test_publics_must_come_first():
    cs = ConstraintSystem(P)
    cs.alloc_private(name="x")
    with pytest.raises(ValueError):
        cs.alloc_public()


def test_unallocated_wire_rejected():
    cs = ConstraintSystem(P)
    cs.alloc_private(name="x")
    with pytest.raises(ValueError):
        cs.enforce({5: 1}, {}, {})


def test_values_assigned_at_allocation():
    cs = ConstraintSystem(P)
    out = cs.alloc_public()
    x = cs.alloc_private(5)
    sq = cs.alloc_private(cs.lc_value({x: 1}) ** 2)
    cs.enforce({x: 1}, {x: 1}, {sq: 1})
    cs.enforce({sq: 1}, {0: 1}, {out: 1})
    # The statement wire comes first but gets its value once computed.
    assert cs.witness().values == (1, 0, 5, 25)
    assert not is_satisfied(cs, cs.witness())
    cs.values[out] = cs.lc_value({sq: 1})
    cs.finalize()
    assert cs.witness().values == (1, 25, 5, 25)
    assert is_satisfied(cs, cs.witness())
    # Values are reduced mod p; a wire given none holds 0.
    assert cs.lc_value({x: 2, 0: P - 1}) == 9
    cs = ConstraintSystem(P)
    cs.alloc_private(-1)
    cs.alloc_private(name="unset")
    assert cs.witness().values == (1, P - 1, 0)
    # A loaded system has the wires but none of their values.
    assert ConstraintSystem.from_export(squaring_system().export()).values == []


def test_export_and_fingerprint_deterministic():
    a, b = squaring_system(), squaring_system()
    assert a.export() == b.export()
    assert a.fingerprint() == b.fingerprint()
    assert a.export().startswith(MAGIC)
    # Any constraint change must move the fingerprint.
    c = ConstraintSystem(P)
    y = c.alloc_public()
    x = c.alloc_private(name="x")
    c.enforce({x: 1}, {x: 2}, {y: 1})
    c.finalize()
    assert c.fingerprint() != a.fingerprint()


def test_constraints_touching_index():
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    y = cs.alloc_private(name="y")
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.enforce({y: 1}, {0: 1}, {y: 1})
    cs.finalize()
    assert rows_touching(cs, x) == [0]
    assert rows_touching(cs, y) == [0, 1]
    w = Witness((1, 1, 1))
    assert satisfied_at_wire(cs, w, x)
    bad = Witness((1, 2, 1))
    assert not satisfied_at_wire(cs, bad, x)


def test_stats():
    cs = squaring_system()
    s = cs.stats()
    assert (s.constraint_count, s.public_count, s.private_count, s.term_count) == (1, 1, 1, 3)


def _honest_witness(pub, name):
    """The model circuit's witness for the empty dataset, or the data
    circuit's for small digest sets."""
    if name == "model":
        return pub.model_circuit.cs.witness()
    return DataCircuit(pub.config, [5, 6], [7], [8]).cs.witness()


@pytest.mark.parametrize("name", ["model", "data"])
def test_from_export_roundtrip_and_verdicts(fast_pub, name):
    circuit = getattr(fast_pub, f"{name}_circuit")
    exported = circuit.cs.export()
    parsed = ConstraintSystem.from_export(exported)
    assert parsed.export() == exported
    assert parsed.stats() == circuit.cs.stats()
    honest = _honest_witness(fast_pub, name)
    k = 1 + circuit.cs.num_public
    flipped = Witness(honest.values[:k] + ((honest.values[k] + 1) % P,) + honest.values[k + 1:])
    for witness, verdict in ((honest, True), (flipped, False)):
        assert is_satisfied(circuit.cs, witness) is verdict
        assert is_satisfied(parsed, witness) is verdict


def two_row_system():
    """x^2 = y and a boolean z: coefficients 1 and P-1, a two-term row."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public()
    x = cs.alloc_private(name="x")
    z = cs.alloc_private(name="z")
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.enforce({z: 1}, {0: 1, z: -1}, {})
    cs.finalize()
    return cs


# The two rows above, per matrix, as (wire, coefficient id) terms with the
# table (1, P-1).
TWO_ROWS = (
    [[(2, 0)], [(3, 0)]],
    [[(2, 0)], [(0, 0), (3, 1)]],
    [[(1, 0)], []],
)


def encode(table=(1, P - 1), matrices=TWO_ROWS, wires=4, public=1, k=32, magic=MAGIC):
    """The export layout written out field by field."""
    u32s = lambda xs: struct.pack(f"<{len(xs)}I", *xs)
    out = magic + u32s([k]) + P.to_bytes(k, "little")
    out += u32s([wires, public, len(matrices[0]), len(table)])
    out += b"".join(c.to_bytes(k, "little") for c in table)
    for rows in matrices:
        terms = [t for row in rows for t in row]
        out += u32s([len(row) for row in rows])
        out += u32s([w for w, _ in terms]) + u32s([c for _, c in terms])
    return out


def with_row(matrix, row, terms):
    """TWO_ROWS with one row of one matrix replaced."""
    out = [list(rows) for rows in TWO_ROWS]
    out[matrix][row] = terms
    return out


def test_export_layout():
    good = two_row_system().export()
    assert good == encode()
    assert ConstraintSystem.from_export(good).export() == good
    # Coefficients unreduced or zero mod P are normalised away.
    cs = ConstraintSystem(P)
    y, x, z = cs.alloc_public(), cs.alloc_private(name="x"), cs.alloc_private(name="z")
    cs.enforce({x: P + 1}, {x: 1}, {y: 1, 0: P})
    cs.enforce({z: 1}, {z: -1, 0: 1}, {})
    assert cs.export() == good
    # The table is sorted whatever order the coefficients first appear in.
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    cs.enforce({x: -1}, {x: 1}, {})
    cs.enforce({x: 1}, {x: 1}, {})
    rows = ([[(1, 1)], [(1, 0)]], [[(1, 0)], [(1, 0)]], [[], []])
    assert cs.export() == encode(matrices=rows, wires=2, public=0)
    assert cs.constraints[0] == ({x: P - 1}, {x: 1}, {})


def test_from_export_is_strict():
    good = encode()
    assert ConstraintSystem.from_export(good).export() == good
    unsorted = with_row(1, 1, [(0, 1), (3, 0)])
    third = with_row(1, 1, [(0, 0), (3, 2)])
    for bad, reason in (
        (good.replace(b"v2", b"v1"), "not an unlearn-r1cs v2"),
        (good[:-1], "truncated"),
        (good + b"\0", "trailing bytes"),
        (encode(k=33), "modulus is not canonical"),
        (encode(public=4), "4 public wires out of 4"),
        (encode(wires=3), "A: wire out of range"),
        (encode(matrices=with_row(1, 1, [(3, 1), (0, 0)])), "B: wires repeated or out of order"),
        (encode(matrices=with_row(1, 1, [(3, 0), (3, 1)])), "B: wires repeated or out of order"),
        (encode(table=(0, P - 1)), "coefficient is zero or not below the modulus"),
        (encode(table=(1, P)), "coefficient is zero or not below the modulus"),
        (encode(matrices=with_row(2, 0, [(1, 2)])), "C: coefficient id out of range"),
        (encode(table=(P - 1, 1), matrices=unsorted), "table is not strictly increasing"),
        (encode(table=(1, 1, P - 1), matrices=third), "table is not strictly increasing"),
        (encode(table=(1, 2, P - 1), matrices=third), "table has unused entries"),
    ):
        assert bad != good
        with pytest.raises(ValueError, match=reason):
            ConstraintSystem.from_export(bad)


def test_constraints_view():
    cs = ConstraintSystem(P)
    x, y = cs.alloc_private(name="x"), cs.alloc_private(name="y")
    cs.enforce({y: 3, x: -1, 0: P}, {0: 1}, {})
    cs.enforce({x: 1}, {x: 1}, {y: 2 * P + 5})
    rows = cs.constraints
    assert len(rows) == 2
    assert rows[0] == ({x: P - 1, y: 3}, {0: 1}, {})
    assert rows[-1] == rows[1] == ({x: 1}, {x: 1}, {y: 5})
    assert list(rows) == [rows[0], rows[1]]
    with pytest.raises(IndexError):
        rows[2]
    # Coefficients are renumbered for export; the rows stay the same.
    loaded = ConstraintSystem.from_export(cs.export())
    assert list(loaded.constraints) == list(rows)


@pytest.mark.parametrize("name", ["model", "data"])
def test_built_and_loaded_agree_on_failures(fast_pub, name):
    circuit = getattr(fast_pub, f"{name}_circuit")
    loaded = ConstraintSystem.from_export(circuit.cs.export())
    honest = _honest_witness(fast_pub, name)
    wire = 1 + circuit.cs.num_public
    values = list(honest.values)
    values[wire] = (values[wire] + 1) % P
    flipped = Witness(tuple(values))
    assert failing_rows(circuit.cs, honest) == failing_rows(loaded, honest) == []
    failing = failing_rows(circuit.cs, flipped)
    assert failing and failing_rows(loaded, flipped) == failing
    # Only rows that read the flipped wire can fail.
    assert set(failing) <= set(rows_touching(loaded, wire))
    assert not satisfied_at_wire(loaded, flipped, wire)


def values_only_system():
    cs = ConstraintSystem(P, values_only=True)
    y = cs.alloc_public(9)
    x = cs.alloc_private(3)
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    return cs


@pytest.mark.parametrize(
    "read",
    [
        lambda cs: cs.export(),
        lambda cs: cs.fingerprint(),
        lambda cs: is_satisfied(cs, cs.witness()),
        lambda cs: failing_rows(cs, cs.witness()),
        lambda cs: cs.constraints,
        lambda cs: cs.project(cs.witness()),
        lambda cs: cs.complete((1, 9, 3)),
    ],
    ids=[
        "export", "fingerprint", "is_satisfied", "failing_constraints", "constraints",
        "project", "complete",
    ],
)
def test_values_only_system_refuses_row_operations(read):
    cs = values_only_system()
    assert cs.witness() == Witness((1, 9, 3))
    with pytest.raises(RowsNotRecorded):
        read(cs)


def test_values_only_system_keeps_its_other_checks():
    cs = values_only_system()
    # A short witness is refused as rowless, not judged unsatisfied.
    with pytest.raises(RowsNotRecorded):
        is_satisfied(cs, Witness((1,)))
    with pytest.raises(BuildPhaseClosed):
        cs.enforce({}, {}, {})


# -- free and derived wires -------------------------------------------------------


def chain_system():
    """x free; x2 = x*x and x3 = x2*x are defined; s = x3 + x and t, with
    2t = x, are free: s's row has two C terms, and t's row a coefficient
    other than 1.  The statement y = s*s is checked, not defined."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public(100)
    x = cs.alloc_private(2)
    x2 = cs.alloc_private(4)
    cs.enforce({x: 1}, {x: 1}, {x2: 1})
    x3 = cs.alloc_private(8)
    cs.enforce({x2: 1}, {x: 1}, {x3: 1})
    s = cs.alloc_private(10)
    cs.enforce({0: 1}, {x3: 1}, {s: 1, x: -1})
    t = cs.alloc_private(1)
    cs.enforce({0: 1}, {x: 1}, {t: 2})
    cs.enforce({s: 1}, {s: 1}, {y: 1})
    # A row whose C wire is not above an earlier row's wire defines nothing.
    cs.enforce({x: 1}, {0: 1}, {x: 1})
    cs.finalize()
    return cs


def test_rule_splits_free_and_defined_wires():
    cs = chain_system()
    assert cs.free_wires() == [2, 5, 6]
    witness = cs.witness()
    assert is_satisfied(cs, witness)
    assert cs.project(witness) == [1, 100, 2, 10, 1]
    assert cs.complete([1, 100, 2, 10, 1]) == witness


@pytest.mark.parametrize(
    "given",
    [
        [1, 100, 2, 10],  # short
        [1, 100, 2, 10, 1, 0],  # long
        [2, 100, 2, 10, 1],  # the constant is not 1
        [1, 100, 3, 10, 1],  # x3 + x != s
        [1, 100, 2, 10, 2],  # 2t != x
        [1, 101, 2, 10, 1],  # s*s != y
        [],
    ],
)
def test_complete_refuses_what_no_satisfying_witness_projects_to(given):
    with pytest.raises(Unsatisfied):
        chain_system().complete(given)


def test_complete_names_the_first_failing_row():
    cs = chain_system()
    # Rows: 0 and 1 define x2 and x3, 2 checks s, 3 t, 4 the statement and
    # 5 x again.  No row when the length or the constant is wrong.
    for given, row in (
        ([1, 100, 2, 10], None),
        ([1, 100, 2, 10, 1, 0], None),
        ([2, 100, 2, 10, 1], None),
        ([1, 100, 3, 10, 1], 2),  # x3 + x != s, and then 2t != x and s*s != y
        ([1, 100, 2, 10, 2], 3),  # 2t != x
        ([1, 101, 2, 10, 1], 4),  # s*s != y
    ):
        with pytest.raises(Unsatisfied) as refused:
            cs.complete(given)
        assert refused.value.row == row, given
    # check names the first row the whole witness fails, as evaluating each
    # row does: a wrong defined wire fails its defining row first, and x
    # fails x2's row before the rows x2 and x3 feed.
    honest = cs.witness().values
    for wire, row in ((3, 0), (4, 1), (2, 0), (6, 3), (1, 4)):
        values = list(honest)
        values[wire] += 1
        witness = Witness(tuple(values))
        with pytest.raises(Unsatisfied) as refused:
            cs.check(witness)
        assert refused.value.row == row == failing_rows(cs, witness)[0], wire
    cs.check(Witness(honest))
    with pytest.raises(Unsatisfied) as refused:
        cs.check(Witness(honest + (0,)))
    assert refused.value.row is None


def test_check_judges_every_single_wire_mutation_as_the_rows_do():
    # Part-filled model and data circuits, each wire moved by one, defined
    # wires included: check, through complete, refuses exactly the
    # witnesses some row fails, and names the first such row.
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=2,
        unlearn_capacity=2,
        backend="witness-check",
        hash_rounds=TINY_ROUNDS,
    )
    scale = config.train.scale
    points = [
        DataPoint(uid, (fx_encode(x, scale),), fx_encode(1, scale))
        for uid, x in ((1, 0.5), (2, -0.25))
    ]
    digests = [hash_data_point(d, config.hash_cfg) for d in points]
    for circuit in (
        ModelCircuit(config, Dataset(tuple(points[:1]), 1)),
        DataCircuit(config, digests[:1], [], digests[1:]),
    ):
        cs = circuit.cs
        honest = cs.witness().values
        assert is_satisfied(cs, Witness(honest)) and failing_rows(cs, Witness(honest)) == []
        for wire in range(1, cs.num_wires):
            values = list(honest)
            values[wire] = (values[wire] + 1) % P
            witness = Witness(tuple(values))
            failing = failing_rows(cs, witness)
            assert is_satisfied(cs, witness) == (failing == []), wire
            if failing:
                with pytest.raises(Unsatisfied) as refused:
                    cs.check(witness)
                assert refused.value.row == failing[0], wire


def test_a_wire_below_a_later_rows_wire_is_free():
    # z's row comes after a row that reads a larger wire, so z is free.
    cs = ConstraintSystem(P)
    x = cs.alloc_private(3)
    z = cs.alloc_private(9)
    big = cs.alloc_private(5)
    cs.enforce({0: 1}, {big: 1}, {big: 1})
    cs.enforce({x: 1}, {x: 1}, {z: 1})
    cs.finalize()
    assert cs.free_wires() == [x, z, big]
    assert cs.complete(cs.project(cs.witness())) == cs.witness()


FAST_KINDS = {"linear": 0, "logistic": 0, "nn": 2}


@functools.cache
def fast_config(kind: str) -> ProtocolConfig:
    return ProtocolConfig(
        train=default_train_config(kind, 1, FAST_KINDS[kind], epochs=1),
        capacity=3,
        unlearn_capacity=3,
        backend="witness-check",
        hash_rounds=TINY_ROUNDS,
    )


@functools.cache
def fast_rows(kind: str) -> tuple[ConstraintSystem, ConstraintSystem]:
    """Both circuits' rows, as setup builds them."""
    config = fast_config(kind)
    return ModelCircuit(config).cs, DataCircuit(config).cs


@given(
    kind=st.sampled_from(sorted(FAST_KINDS)),
    xs=st.lists(st.integers(-4, 4), max_size=6),
    labels=st.lists(st.integers(0, 1), min_size=6, max_size=6),
    trained=st.integers(0, 3),
    previous=st.integers(0, 3),
)
@settings(max_examples=30, deadline=None)
def test_free_wires_and_rows_rebuild_the_witness(kind, xs, labels, trained, previous):
    # Points on a quarter grid: the first ``trained`` train the model, up to
    # three more are unlearnt, ``previous`` of them in an earlier update.
    config = fast_config(kind)
    scale = config.train.scale
    points = [
        DataPoint(uid, (fx_encode(x / 4, scale),), fx_encode(y, scale))
        for uid, (x, y) in enumerate(zip(xs, labels), 1)
    ]
    dataset = Dataset(tuple(points[:trained]), 1)
    unlearnt = [hash_data_point(d, config.hash_cfg) for d in points[trained:trained + 3]]
    model = ModelCircuit(config, dataset, values_only=True)
    data = DataCircuit(
        config, model.digests, unlearnt[:previous], unlearnt[previous:], values_only=True
    )
    for rows, circuit in zip(fast_rows(kind), (model, data)):
        witness = circuit.cs.witness()
        given_values = rows.project(witness)
        assert len(given_values) == 1 + rows.num_public + len(rows.free_wires())
        assert rows.complete(given_values) == witness


def test_rule_reads_the_rows_only(fast_pub):
    # The same free wires for setup's system, the one loaded from its
    # export, and the systems built for two other datasets.
    config = fast_pub.config
    scale = config.train.scale
    datasets = [
        Dataset(tuple(DataPoint(u, (fx_encode(x, scale),), fx_encode(1, scale))
                      for u, x in points), 1)
        for points in ([(1, 0.5), (2, -0.25)], [(7, 1.0), (8, 0.75), (9, -1.0)])
    ]
    model_free = fast_pub.model_circuit.cs.free_wires()
    loaded = ConstraintSystem.from_export(fast_pub.model_circuit.cs.export())
    assert loaded.free_wires() == model_free
    for dataset in datasets:
        assert ModelCircuit(config, dataset).cs.free_wires() == model_free
    data_free = fast_pub.data_circuit.cs.free_wires()
    assert ConstraintSystem.from_export(fast_pub.data_circuit.cs.export()).free_wires() == data_free
    assert DataCircuit(config, [5, 6], [7], [8]).cs.free_wires() == data_free
    # Most of the data circuit's private wires are defined by its rows.
    assert len(data_free) < fast_pub.data_circuit.cs.num_private / 2
