import struct

import pytest

from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.r1cs import (
    MAGIC,
    BuildPhaseClosed,
    ConstraintSystem,
    Witness,
    WitnessSynthesisError,
)


def squaring_system():
    cs = ConstraintSystem(P)
    y = cs.alloc_public(name="y")
    x = cs.alloc_private(name="x")
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    return cs


def test_squaring_constraint():
    cs = squaring_system()
    assert cs.is_satisfied(Witness((1, 9, 3)))
    assert not cs.is_satisfied(Witness((1, 10, 3)))


def test_boolean_gadget():
    cs = ConstraintSystem(P)
    b = cs.alloc_private(name="b")
    cs.enforce({b: 1}, {0: 1, b: -1}, {})
    cs.finalize()
    assert cs.is_satisfied(Witness((1, 0)))
    assert cs.is_satisfied(Witness((1, 1)))
    assert not cs.is_satisfied(Witness((1, 2)))


def test_empty_system_satisfied():
    cs = ConstraintSystem(P)
    cs.alloc_private(name="x")
    cs.finalize()
    assert cs.is_satisfied(Witness((1, 42)))
    assert not cs.is_satisfied(Witness((1,)))  # wrong length
    assert not cs.is_satisfied(Witness((2, 42)))  # constant wire must be 1


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
        cs.alloc_public(name="y")


def test_unallocated_wire_rejected():
    cs = ConstraintSystem(P)
    cs.alloc_private(name="x")
    with pytest.raises(ValueError):
        cs.enforce({5: 1}, {}, {})


def test_synthesis_with_hints_and_deferred():
    cs = ConstraintSystem(P)
    out = cs.alloc_public(hint=lambda vs: vs[3], deferred=True)
    x = cs.alloc_private(name="x")
    sq = cs.alloc_private(hint=lambda vs: vs[x] * vs[x] % P)
    cs.enforce({x: 1}, {x: 1}, {sq: 1})
    cs.enforce({sq: 1}, {0: 1}, {out: 1})
    cs.finalize()
    w = cs.synthesize({"x": 5})
    assert w.values == (1, 25, 5, 25)
    assert cs.is_satisfied(w)


def test_synthesis_missing_input():
    cs = squaring_system()
    with pytest.raises(WitnessSynthesisError):
        cs.synthesize({})


def test_hint_errors_propagate():
    cs = ConstraintSystem(P)
    x = cs.alloc_private(name="x")

    def inverse(vs):
        if vs[x] == 0:
            raise WitnessSynthesisError("no inverse")
        return pow(vs[x], -1, P)

    cs.alloc_private(hint=inverse)
    cs.finalize()
    assert cs.synthesize({"x": 2}).values[2] == pow(2, -1, P)
    with pytest.raises(WitnessSynthesisError):
        cs.synthesize({"x": 0})


def test_export_and_fingerprint_deterministic():
    a, b = squaring_system(), squaring_system()
    assert a.export() == b.export()
    assert a.fingerprint() == b.fingerprint()
    assert a.export().startswith(MAGIC)
    # Any constraint change must move the fingerprint.
    c = ConstraintSystem(P)
    y = c.alloc_public(name="y")
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
    assert cs.constraints_touching(x) == [0]
    assert cs.constraints_touching(y) == [0, 1]
    w = cs.synthesize({"x": 1, "y": 1})
    assert cs.satisfied_at_wire(w, x)
    bad = Witness((1, 2, 1))
    assert not cs.satisfied_at_wire(bad, x)


def test_stats():
    cs = squaring_system()
    s = cs.stats()
    assert (s.constraint_count, s.public_count, s.private_count) == (1, 1, 1)


@pytest.mark.parametrize("name", ["model", "data"])
def test_from_export_roundtrip_and_verdicts(fast_pub, name):
    circuit = getattr(fast_pub, f"{name}_circuit")
    exported = circuit.cs.export()
    parsed = ConstraintSystem.from_export(exported)
    assert parsed.export() == exported
    assert parsed.stats() == circuit.cs.stats()
    if name == "model":
        from unlearn.training import Dataset

        honest = circuit.synthesize(Dataset((), 1))
    else:
        honest = circuit.synthesize([5, 6], [7], [8])
    k = 1 + circuit.cs.num_public
    flipped = Witness(honest.values[:k] + ((honest.values[k] + 1) % P,) + honest.values[k + 1:])
    for witness, verdict in ((honest, True), (flipped, False)):
        assert circuit.cs.is_satisfied(witness) is verdict
        assert parsed.is_satisfied(witness) is verdict


def two_row_system():
    """x^2 = y and a boolean z: coefficients 1 and P-1, a two-term row."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public(name="y")
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
    y, x, z = cs.alloc_public(name="y"), cs.alloc_private(name="x"), cs.alloc_private(name="z")
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
    if name == "model":
        from unlearn.training import Dataset

        honest = circuit.synthesize(Dataset((), 1))
    else:
        honest = circuit.synthesize([5, 6], [7], [8])
    wire = 1 + circuit.cs.num_public
    values = list(honest.values)
    values[wire] = (values[wire] + 1) % P
    flipped = Witness(tuple(values))
    assert circuit.cs.failing_constraints(honest) == loaded.failing_constraints(honest) == []
    failing = circuit.cs.failing_constraints(flipped)
    assert failing and loaded.failing_constraints(flipped) == failing
    # Only rows that read the flipped wire can fail.
    assert set(failing) <= set(loaded.constraints_touching(wire))
    assert not loaded.satisfied_at_wire(flipped, wire)
