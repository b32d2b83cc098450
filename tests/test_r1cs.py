import functools
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import TINY_ROUNDS, data_witness, failing_rows, is_satisfied, model_witness
from conftest import project, rows_touching, satisfied_at_wire
from unlearn.circuits import DataCircuit, ModelCircuit, data_projection, model_projection
from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.field import fx_encode
from unlearn.hashing import DataPoint, hash_data_point
from unlearn.protocol import ProtocolConfig
from unlearn.r1cs import MAGIC, BuildPhaseClosed, ConstraintSystem, Unsatisfied
from unlearn.training import Dataset, default_train_config, train_model


def squaring_system():
    cs = ConstraintSystem(P)
    y = cs.alloc_public()
    x = cs.alloc_private(name="x")
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    return cs


def test_squaring_constraint():
    cs = squaring_system()
    assert is_satisfied(cs, (1, 9, 3))
    assert not is_satisfied(cs, (1, 10, 3))


def test_boolean_gadget():
    cs = ConstraintSystem(P)
    b = cs.alloc_private(name="b")
    cs.enforce({b: 1}, {0: 1, b: -1}, {})
    cs.finalize()
    assert is_satisfied(cs, (1, 0))
    assert is_satisfied(cs, (1, 1))
    assert not is_satisfied(cs, (1, 2))


def test_empty_system_satisfied():
    cs = ConstraintSystem(P)
    cs.alloc_private(name="x")
    cs.finalize()
    assert is_satisfied(cs, (1, 42))
    assert not is_satisfied(cs, (1,))  # wrong length
    assert not is_satisfied(cs, (2, 42))  # constant wire must be 1


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


def test_wires_take_no_values():
    # A system holds rows only: a value passed where a wire is allocated
    # raises, instead of becoming a label.
    cs = ConstraintSystem(P)
    with pytest.raises(TypeError):
        cs.alloc_public(9)
    with pytest.raises(TypeError):
        cs.alloc_private(3)
    assert (cs.alloc_public(), cs.alloc_private(name="x")) == (1, 2)
    assert not hasattr(cs, "values") and not hasattr(cs, "witness")


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
    w = (1, 1, 1)
    assert satisfied_at_wire(cs, w, x)
    bad = (1, 2, 1)
    assert not satisfied_at_wire(cs, bad, x)


def test_stats():
    cs = squaring_system()
    s = cs.stats()
    assert (s.constraint_count, s.public_count, s.private_count, s.term_count) == (1, 1, 1, 3)


def _honest_witness(pub, name):
    """The model circuit's witness for the empty dataset, or the data
    circuit's for small digest sets, each completed from its native
    projection."""
    if name == "model":
        return model_witness(pub.config, Dataset((), pub.config.train.arity))[1]
    return data_witness(pub.config, [5, 6], [7], [8])[1]


@pytest.mark.parametrize("name", ["model", "data"])
def test_from_export_roundtrip_and_verdicts(fast_pub, name):
    circuit = getattr(fast_pub, f"{name}_circuit")
    exported = circuit.cs.export()
    parsed = ConstraintSystem.from_export(exported)
    assert parsed.export() == exported
    assert parsed.stats() == circuit.cs.stats()
    honest = _honest_witness(fast_pub, name)
    k = 1 + circuit.cs.num_public
    flipped = honest[:k] + ((honest[k] + 1) % P,) + honest[k + 1:]
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


def test_a_forged_size_allocates_no_more_than_the_input_holds():
    # Each array is sized from the input only once the rest of the input
    # holds it: a header claiming 2^32 - 1 rows or coefficients, or a row
    # claiming 2^32 - 1 terms, is refused as truncated without allocating
    # anything near that size.
    good = encode()
    huge = struct.pack("<I", 2**32 - 1)
    rows_at = len(MAGIC) + 4 + 32 + 8  # after the magic, k, modulus, wires and public
    first_count_at = rows_at + 8 + 2 * 32  # after rows, coefficients and the table
    for at in (rows_at, rows_at + 4, first_count_at):
        forged = good[:at] + huge + good[at + 4:]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated"):
                ConstraintSystem.from_export(forged)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, at


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
    values = list(honest)
    values[wire] = (values[wire] + 1) % P
    flipped = tuple(values)
    assert failing_rows(circuit.cs, honest) == failing_rows(loaded, honest) == []
    failing = failing_rows(circuit.cs, flipped)
    assert failing and failing_rows(loaded, flipped) == failing
    # Only rows that read the flipped wire can fail.
    assert set(failing) <= set(rows_touching(loaded, wire))
    assert not satisfied_at_wire(loaded, flipped, wire)


# -- free and derived wires -------------------------------------------------------


def chain_system():
    """x free; x2 = x*x and x3 = x2*x are defined, and so is s = x3 + x,
    whose row's C is s - x; t, with 2t = x, is free, as its row's C
    coefficient is not 1.  The statement y = s*s is checked, not
    defined."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public()
    x = cs.alloc_private(name="x")
    x2 = cs.alloc_private(name="x2")
    cs.enforce({x: 1}, {x: 1}, {x2: 1})
    x3 = cs.alloc_private(name="x3")
    cs.enforce({x2: 1}, {x: 1}, {x3: 1})
    s = cs.alloc_private(name="s")
    cs.enforce({0: 1}, {x3: 1}, {s: 1, x: -1})
    t = cs.alloc_private(name="t")
    cs.enforce({0: 1}, {x: 1}, {t: 2})
    cs.enforce({s: 1}, {s: 1}, {y: 1})
    # A row whose C wire is not above an earlier row's wire defines nothing.
    cs.enforce({x: 1}, {0: 1}, {x: 1})
    cs.finalize()
    return cs


# chain_system's witness for x = 2: y = 100, x2 = 4, x3 = 8, s = 10, t = 1.
CHAIN = (1, 100, 2, 4, 8, 10, 1)


def test_rule_splits_free_and_defined_wires():
    cs = chain_system()
    assert cs.free_wires() == [2, 6]
    witness = CHAIN
    assert is_satisfied(cs, witness) and failing_rows(cs, witness) == []
    assert project(cs, witness) == [1, 100, 2, 1]
    assert tuple(cs.complete([1, 100, 2, 1])) == witness


def test_a_defining_row_places_the_free_wires_below_its_own():
    # u is new in w's row, below w in C: it is free, and placed before the
    # walk assigns w = x*x + u.
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    u = cs.alloc_private(name="u")
    w = cs.alloc_private(name="w")
    cs.enforce({x: 1}, {x: 1}, {u: -1, w: 1})
    cs.finalize()
    assert cs.free_wires() == [x, u]
    assert tuple(cs.complete([1, 3, 5])) == (1, 3, 5, 14)


@pytest.mark.parametrize(
    "given",
    [
        [1, 100, 2],  # short
        [1, 100, 2, 1, 0],  # long
        [2, 100, 2, 1],  # the constant is not 1
        [1, 100, 3, 1],  # 2t != x, and s*s != y
        [1, 100, 2, 2],  # 2t != x
        [1, 101, 2, 1],  # s*s != y
        [],
    ],
)
def test_complete_refuses_what_no_satisfying_witness_projects_to(given):
    with pytest.raises(Unsatisfied):
        chain_system().complete(given)


def test_complete_names_the_first_failing_row():
    cs = chain_system()
    # Rows: 0, 1 and 2 define x2, x3 and s, 3 checks t, 4 the statement
    # and 5 x again.  No row when the length or the constant is wrong.
    for given, row in (
        ([1, 100, 2], None),
        ([1, 100, 2, 1, 0], None),
        ([2, 100, 2, 1], None),
        ([1, 100, 3, 1], 3),  # 2t != x, and then s*s != y
        ([1, 100, 2, 2], 3),  # 2t != x
        ([1, 101, 2, 1], 4),  # s*s != y
    ):
        with pytest.raises(Unsatisfied) as refused:
            cs.complete(given)
        assert refused.value.row == row, given
    # A witness with any one wire moved fails some row, and is not the one
    # its projection completes to: a wrong defined wire fails its defining
    # row first, and x fails x2's row before the rows x2 and x3 feed.
    honest = CHAIN
    for wire, row in ((3, 0), (4, 1), (5, 2), (2, 0), (6, 3), (1, 4)):
        values = list(honest)
        values[wire] += 1
        witness = tuple(values)
        assert failing_rows(cs, witness)[0] == row, wire
        assert not is_satisfied(cs, witness), wire
    assert is_satisfied(cs, honest)
    assert not is_satisfied(cs, honest + (0,))


def test_check_judges_every_single_wire_mutation_as_the_rows_do():
    # Part-filled model and data circuits, each wire moved by one, defined
    # wires included: complete, from the projection, refuses exactly the
    # witnesses some row fails.
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
    for cs, witness in (
        model_witness(config, Dataset(tuple(points[:1]), 1)),
        data_witness(config, digests[:1], [], digests[1:]),
    ):
        honest = witness
        assert is_satisfied(cs, honest) and failing_rows(cs, honest) == []
        for wire in range(1, cs.num_wires):
            values = list(honest)
            values[wire] = (values[wire] + 1) % P
            witness = tuple(values)
            assert is_satisfied(cs, witness) == (failing_rows(cs, witness) == []), wire


def test_a_wire_below_a_later_rows_wire_is_free():
    # z's row comes after a row that reads a larger wire, so z is free.
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    z = cs.alloc_private(name="z")
    big = cs.alloc_private(name="big")
    cs.enforce({0: 1}, {big: 1}, {big: 1})
    cs.enforce({x: 1}, {x: 1}, {z: 1})
    cs.finalize()
    assert cs.free_wires() == [x, z, big]
    witness = (1, 3, 9, 5)
    assert project(cs, witness) == list(witness)
    assert tuple(cs.complete(project(cs, witness))) == witness


def digit_system(width: int, booleans: bool = True) -> ConstraintSystem:
    """x * 1 = sum 2^i b_i over new wires b_0 ... b_{width-1}, as
    ``CircuitBuilder.bits`` writes it, then optionally their boolean
    rows; x is free."""
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    bits = [cs.alloc_private(name="b") for _ in range(width)]
    cs.enforce({x: 1}, {0: 1}, {b: 1 << i for i, b in enumerate(bits)})
    if booleans:
        for b in bits:
            cs.enforce({b: 1}, {0: 1, b: -1}, {})
    cs.finalize()
    return cs


def test_a_sum_row_defines_its_bits_as_binary_digits():
    cs = digit_system(4)
    digits = (1, 0b1011, 1, 1, 0, 1)
    assert cs.free_wires() == [1]
    assert is_satisfied(cs, digits) and failing_rows(cs, digits) == []
    assert project(cs, digits) == [1, 0b1011]
    assert tuple(cs.complete([1, 0b1011])) == digits
    assert tuple(cs.complete([1, 0])) == (1, 0, 0, 0, 0, 0)
    # No four digits make 16, nor p - 1: the sum row is refused.
    for value in (16, P - 1):
        with pytest.raises(Unsatisfied) as refused:
            cs.complete([1, value])
        assert refused.value.row == 0


def test_check_follows_satisfying_bits_that_are_not_digits():
    # b_0 = 2, b_1 = 0 sums to x = 2 as the digits 0, 1 do: the sum row
    # holds, and the boolean row that fails is the first failing row.
    # Without boolean rows every row holds.  Either way the projection
    # [1, 2] completes to the digits, so no prover or verifier sees the
    # forged bits.
    digits = (1, 2, 0, 1)
    for booleans, failing in ((True, [1]), (False, [])):
        cs = digit_system(2, booleans)
        forged = (1, 2, 2, 0)
        assert failing_rows(cs, forged) == failing
        assert project(cs, forged) == [1, 2]
        assert tuple(cs.complete([1, 2])) == digits
        assert not is_satisfied(cs, forged)
    # Bits that do not sum to x fail the sum row itself.
    cs = digit_system(2)
    assert failing_rows(cs, (1, 2, 1, 1))[0] == 0
    assert not is_satisfied(cs, (1, 2, 1, 1))


def test_only_consecutive_new_wires_with_powers_of_two_are_digits():
    def free_of(coefficients, wires=None):
        """The free wires of x * 1 = sum c_i w_i over new wires w_i:
        wires 2, 3, ... unless given."""
        cs = ConstraintSystem(P)
        wires = wires or list(range(2, 2 + len(coefficients)))
        x = cs.alloc_private(name="x")
        for _ in range(max(wires) - 1):
            cs.alloc_private(name="w")
        cs.enforce({x: 1}, {0: 1}, dict(zip(wires, coefficients)))
        cs.finalize()
        return cs.free_wires()

    assert free_of([1, 2, 4]) == [1]
    # Out of order, or not from 2^0 up, the powers of two define nothing.
    for coefficients in ([2, 1, 4], [1, 4, 8], [3, 2, 4], [2, 4]):
        assert free_of(coefficients) == [1, 2, 3, 4][: 1 + len(coefficients)], coefficients
    # Nor do 1 and 2 over wires with a gap between them.
    assert free_of([1, 2], wires=[2, 4]) == [1, 2, 3, 4]
    # A width whose digits need not be unique below p defines nothing.
    width = P.bit_length()
    assert len(free_of([1 << i for i in range(width)])) == 1 + width
    assert free_of([1 << i for i in range(width - 1)]) == [1]


def inverse_system(b=None, c=None) -> tuple[ConstraintSystem, int, int]:
    """s = x * x, then (s - 2) * v = 1 over a new wire v, as
    ``CircuitBuilder.nonzero`` writes it, or with the given B and C in
    its place; then x, v."""
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    s = cs.alloc_private(name="s")
    v = cs.alloc_private(name="v")
    cs.enforce({x: 1}, {x: 1}, {s: 1})
    cs.enforce({s: 1, 0: -2}, {v: 1} if b is None else b(v), {0: 1} if c is None else c(x))
    cs.finalize()
    return cs, x, v


def test_an_inverting_row_defines_its_wire():
    # v is new in B, with coefficient 1, and C is the constant 1: the row
    # defines v as (s - 2)^-1, so only x is free.
    cs, x, v = inverse_system()
    assert cs.free_wires() == [x] and cs.num_free == 1
    assert list(zip(*cs._defining_rows())) == [(0, 2, 1), (1, v, 0)]
    witness = tuple(cs.complete([1, 3]))
    assert witness == (1, 3, 9, pow(7, -1, P))
    assert is_satisfied(cs, witness) and failing_rows(cs, witness) == []
    assert project(cs, witness) == [1, 3]
    # A value past the free wires is refused, as the inverse is not given.
    with pytest.raises(Unsatisfied) as refused:
        cs.complete([1, 3, pow(7, -1, P)])
    assert refused.value.row is None


def test_an_inverting_row_of_zero_names_its_row():
    # s - 2x = x * x - 2x is 0 at x = 0 and x = 2, where it has no
    # inverse: the walk refuses row 1, the inverting row, and read row by
    # row no v satisfies it.
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    s = cs.alloc_private(name="s")
    v = cs.alloc_private(name="v")
    cs.enforce({x: 1}, {x: 1}, {s: 1})
    cs.enforce({s: 1, x: -2}, {v: 1}, {0: 1})
    cs.finalize()
    assert cs.free_wires() == [x]
    for zero in (0, 2):
        with pytest.raises(Unsatisfied) as refused:
            cs.complete([1, zero])
        assert refused.value.row == 1
        for guess in (0, 1, P - 1):
            assert failing_rows(cs, (1, zero, zero * zero, guess)) == [1]
    assert tuple(cs.complete([1, 3])) == (1, 3, 9, pow(3, -1, P))


@pytest.mark.parametrize(
    "b,c",
    [
        (None, lambda x: {0: 2}),  # C another constant
        (None, lambda x: {}),  # C zero: any v once s = 2
        (None, lambda x: {x: 1}),  # C one wire, not the constant
        (None, lambda x: {0: 1, x: 1}),  # C not a constant
        (lambda v: {0: 1, v: 1}, None),  # B of two terms
        (lambda v: {v: 2}, None),  # v with coefficient 2
        (lambda v: {v: -1}, None),
    ],
    ids=["c-two", "c-zero", "c-one-wire", "c-wire", "b-two-terms", "b-coefficient-2",
         "b-coefficient-minus-1"],
)
def test_only_an_inverting_row_of_one_wire_and_constant_one_defines(b, c):
    # Any other B or C leaves v free: its value is given, and the row
    # checked like any other.
    cs, x, v = inverse_system(b, c)
    assert cs.free_wires() == [x, v] and cs.num_free == 2
    assert list(zip(*cs._defining_rows())) == [(0, 2, 1)]


def test_a_wire_already_read_is_not_inverted():
    # v is read by A too, or by an earlier row: it is not new in B, so it
    # stays free.
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")
    v = cs.alloc_private(name="v")
    cs.enforce({v: 1}, {v: 1}, {0: 1})
    cs.enforce({x: 1}, {v: 1}, {0: 1})
    cs.finalize()
    assert cs.free_wires() == [x, v]
    assert tuple(cs.complete([1, 1, 1])) == (1, 1, 1)
    with pytest.raises(Unsatisfied) as refused:
        cs.complete([1, 1, P - 1])
    assert refused.value.row == 1


def test_loaded_systems_find_the_same_defining_rows(fast_pub):
    # The rule reads the exported rows: a system loaded from an export
    # finds the same defining rows, the inverting ones included.
    cs, _, _ = inverse_system()
    for system in (cs, fast_pub.data_circuit.cs, fast_pub.model_circuit.cs):
        loaded = ConstraintSystem.from_export(system.export())
        assert loaded._defining_rows() == system._defining_rows()
        assert loaded.free_wires() == system.free_wires()
    # The data circuit inverts once, in its last row; the model never.
    [inverting] = [d for d in zip(*fast_pub.data_circuit.cs._defining_rows()) if not d[2]]
    data = fast_pub.data_circuit.cs
    assert inverting == (data.num_constraints - 1, data.num_wires - 1, 0)
    assert all(d[2] for d in zip(*fast_pub.model_circuit.cs._defining_rows()))


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
    # Each circuit's projection, computed natively from its inputs, has
    # one value per free wire, and the rows complete it to a witness that
    # projects back to it and satisfies every row read on its own.
    dataset = Dataset(tuple(points[:trained]), 1)
    unlearnt = [hash_data_point(d, config.hash_cfg) for d in points[trained:trained + 3]]
    model_given, model, digests = model_projection(config, dataset)
    assert model == train_model(dataset, config.train)
    assert digests == tuple(hash_data_point(d, config.hash_cfg) for d in dataset.points)
    sets = (digests, unlearnt[:previous], unlearnt[previous:])
    projections = (model_given, data_projection(config, *sets))
    for rows, given_values in zip(fast_rows(kind), projections):
        assert len(given_values) == 1 + rows.num_public + len(rows.free_wires())
        witness = tuple(rows.complete(given_values))
        assert project(rows, witness) == given_values
        assert failing_rows(rows, witness) == []


def test_rule_reads_the_rows_only(fast_pub):
    # The same free wires for setup's system, the one loaded from its
    # export, and a second build; and every projection has one value
    # for each.
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
    assert ModelCircuit(config).cs.free_wires() == model_free
    for dataset in datasets:
        assert len(model_projection(config, dataset)[0]) == 3 + len(model_free)
    data_free = fast_pub.data_circuit.cs.free_wires()
    assert ConstraintSystem.from_export(fast_pub.data_circuit.cs.export()).free_wires() == data_free
    assert DataCircuit(config).cs.free_wires() == data_free
    assert len(data_projection(config, [5, 6], [7], [8])) == 4 + len(data_free)
    # Most of the data circuit's private wires are defined by its rows.
    assert len(data_free) < fast_pub.data_circuit.cs.num_private / 2
