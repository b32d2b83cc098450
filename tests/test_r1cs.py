import pytest

from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.r1cs import (
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
    assert a.export().startswith(b"unlearn-r1cs v1\n")
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


def test_from_export_is_strict():
    cs = squaring_system()
    good = cs.export()
    assert good.endswith(b"\n2:1|2:1|1:1\n")
    assert ConstraintSystem.from_export(good).export() == good
    for bad in (
        good.replace(b"v1", b"v2"),  # unknown format version
        good.replace(b"wires 3", b"wires 03"),  # non-canonical header number
        good.replace(b"public 1", b"public 3"),  # more public wires than wires
        good.replace(b"constraints 1", b"constraints 2"),  # row count
        good[:-1],  # truncated row
        good + b"\n",  # blank row
        good.replace(b"\n2:1|", b"\n02:1|"),  # leading zero in a wire index
        good.replace(b"\n2:1|", b"\n2:01|"),  # leading zero in a coefficient
        good.replace(b"\n2:1|", b"\n2:0|"),  # zero coefficient
        good.replace(b"\n2:1|", b"\n-2:1|"),  # signed wire index
        good.replace(b"\n2:1|", b"\n 2:1|"),  # blank
        good.replace(b"\n2:1|", b"\n2:1,2:1|"),  # repeated wire
        good.replace(b"|1:1\n", b"|1:1,0:1\n"),  # wires out of order
        good.replace(b"\n2:1|", b"\n3:1|"),  # unallocated wire
        good.replace(b"\n2:1|", f"\n2:{P:x}|".encode()),  # coefficient >= modulus
        good.replace(b"|2:1|", b"||"),  # empty combination not written as "-"
        good.replace(b"|1:1\n", b"|1:1|-\n"),  # four combinations
        b"\xff" + good,  # not ASCII
    ):
        assert bad != good
        with pytest.raises(ValueError):
            ConstraintSystem.from_export(bad)
