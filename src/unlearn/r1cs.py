"""Rank-1 constraint system builder and witness evaluation.

Constraints have the form <A,z> * <B,z> = <C,z> where z is the wire vector:
wire 0 is the constant 1, wires 1..num_public are the statement, and the
remainder are private.  Linear combinations are sparse dicts {wire: coeff}.

Wires may carry a hint closure that computes their value from earlier wires
during witness synthesis; statement wires whose value is only known at the
end of the computation (hash outputs) use deferred hints, evaluated in a
second pass.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

LinComb = dict[int, int]

# The grammar of export(): a header, then one row per constraint of three
# linear combinations, each "-" or wire:coefficient terms with no sign and
# no leading zero.  Term order, wire range and coefficient range are
# checked while parsing.
_EXPORT_HEADER = re.compile(
    r"unlearn-r1cs v1\nmodulus ([1-9a-f][0-9a-f]*)\nwires ([1-9][0-9]*)\n"
    r"public (0|[1-9][0-9]*)\nconstraints (0|[1-9][0-9]*)\n"
)
_TERM = r"(?:0|[1-9][0-9]*):[1-9a-f][0-9a-f]*"
_LC = rf"(?:-|{_TERM}(?:,{_TERM})*)"
_EXPORT_ROW = re.compile(rf"{_LC}\|{_LC}\|{_LC}")


class BuildPhaseClosed(RuntimeError):
    """Raised when allocating or enforcing after finalization."""


class WitnessSynthesisError(ValueError):
    """A hint has no valid value (e.g. inverse of zero) or an input is
    missing."""


@dataclass(frozen=True)
class CircuitStats:
    constraint_count: int
    public_count: int
    private_count: int


@dataclass(frozen=True)
class Witness:
    """Full wire assignment: constant 1, then public, then private."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


@dataclass
class _Wire:
    index: int
    is_public: bool
    name: Optional[str]
    hint: Optional[Callable]
    deferred: bool


class ConstraintSystem:
    def __init__(self, modulus: int):
        self.modulus = modulus
        self.wires: list[_Wire] = [_Wire(0, False, "~one", None, False)]
        self.constraints: list[tuple[LinComb, LinComb, LinComb]] = []
        self.num_public = 0
        self._finalized = False
        self._touch_index: Optional[list[list[int]]] = None

    # -- building ----------------------------------------------------------

    def _alloc(self, is_public, name, hint, deferred) -> int:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        idx = len(self.wires)
        self.wires.append(_Wire(idx, is_public, name, hint, deferred))
        if is_public:
            if idx != self.num_public + 1:
                raise ValueError("public wires must be allocated first")
            self.num_public += 1
        return idx

    def alloc_public(self, name=None, hint=None, deferred=False) -> int:
        return self._alloc(True, name, hint, deferred)

    def alloc_private(self, name=None, hint=None, deferred=False) -> int:
        return self._alloc(False, name, hint, deferred)

    def _norm(self, lc: LinComb) -> LinComb:
        p = self.modulus
        out = {}
        for w, c in lc.items():
            if not 0 <= w < len(self.wires):
                raise ValueError(f"unallocated wire {w}")
            c %= p
            if c:
                out[w] = c
        return out

    def enforce(self, a: LinComb, b: LinComb, c: LinComb) -> None:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        self.constraints.append((self._norm(a), self._norm(b), self._norm(c)))

    def finalize(self) -> None:
        self._finalized = True

    # -- introspection ------------------------------------------------------

    @property
    def num_wires(self) -> int:
        return len(self.wires)

    @property
    def num_private(self) -> int:
        return len(self.wires) - 1 - self.num_public

    def stats(self) -> CircuitStats:
        return CircuitStats(len(self.constraints), self.num_public, self.num_private)

    # -- witness synthesis ---------------------------------------------------

    def synthesize(self, inputs: Mapping[str, int]) -> Witness:
        values: list[Optional[int]] = [None] * len(self.wires)
        values[0] = 1
        deferred = []
        for w in self.wires[1:]:
            if w.hint is None:
                if w.name not in inputs:
                    raise WitnessSynthesisError(f"missing input {w.name!r}")
                values[w.index] = inputs[w.name] % self.modulus
            elif w.deferred:
                deferred.append(w)
            else:
                values[w.index] = w.hint(values) % self.modulus
        for w in deferred:
            values[w.index] = w.hint(values) % self.modulus
        return Witness(tuple(values))

    # -- evaluation ----------------------------------------------------------

    def lc_value(self, lc: LinComb, values: Sequence[int]) -> int:
        return sum(c * values[w] for w, c in lc.items()) % self.modulus

    def _holds(self, con, values) -> bool:
        a, b, c = con
        return (
            self.lc_value(a, values) * self.lc_value(b, values) - self.lc_value(c, values)
        ) % self.modulus == 0

    def is_satisfied(self, witness: Witness) -> bool:
        values = witness.values
        if len(values) != len(self.wires) or values[0] != 1:
            return False
        return all(self._holds(con, values) for con in self.constraints)

    def failing_constraints(self, witness: Witness) -> list[int]:
        values = witness.values
        return [i for i, con in enumerate(self.constraints) if not self._holds(con, values)]

    def constraints_touching(self, wire: int) -> list[int]:
        if self._touch_index is None:
            index: list[list[int]] = [[] for _ in self.wires]
            for i, (a, b, c) in enumerate(self.constraints):
                for w in set(a) | set(b) | set(c):
                    index[w].append(i)
            self._touch_index = index
        return self._touch_index[wire]

    def satisfied_at_wire(self, witness: Witness, wire: int) -> bool:
        """Check only the constraints referencing one wire: sufficient to
        decide satisfiability after a single-wire mutation of a witness
        that satisfied the full system."""
        values = witness.values
        return all(
            self._holds(self.constraints[i], values)
            for i in self.constraints_touching(wire)
        )

    # -- canonical export ------------------------------------------------------

    def export(self) -> bytes:
        """Versioned text listing of the sparse (A, B, C) rows.

        Consumed by the debugging tools and by the external proving
        backend; also the preimage of the circuit fingerprint, and the file
        ``setup`` stores for verifiers (read back by ``from_export``).
        """

        def terms(lc: LinComb) -> str:
            if not lc:
                return "-"
            return ",".join(f"{w}:{c:x}" for w, c in sorted(lc.items()))

        lines = [
            "unlearn-r1cs v1",
            f"modulus {self.modulus:x}",
            f"wires {self.num_wires}",
            f"public {self.num_public}",
            f"constraints {len(self.constraints)}",
        ]
        for a, b, c in self.constraints:
            lines.append(f"{terms(a)}|{terms(b)}|{terms(c)}")
        return ("\n".join(lines) + "\n").encode()

    def fingerprint(self) -> str:
        return fingerprint_of(self.export())

    @classmethod
    def from_export(cls, data: bytes) -> "ConstraintSystem":
        """Parse ``export()`` output into a finalized system that evaluates
        witnesses; its wires have no names or hints, so it cannot
        synthesize one.  Strict: input that ``export()`` would not write
        raises ValueError, so ``from_export(x).export() == x`` whenever
        it returns."""
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError:
            raise ValueError("r1cs export is not ASCII") from None
        head = _EXPORT_HEADER.match(text)
        if head is None:
            raise ValueError("r1cs export header is malformed")
        modulus, num_wires, num_public, num_rows = (
            int(head[1], 16), int(head[2]), int(head[3]), int(head[4])
        )
        if num_public >= num_wires:
            raise ValueError(f"{num_public} public wires out of {num_wires}")
        rows = text[head.end():].split("\n")
        if len(rows) != num_rows + 1 or rows[-1]:
            raise ValueError(f"expected {num_rows} constraint rows, got {len(rows) - 1}")
        # Rows repeat wire indices and a few hundred distinct coefficients:
        # share one int object for each, as a built system does.
        wire_ids = list(range(num_wires))
        coefficients: dict[str, int] = {}

        def lc(field: str) -> LinComb:
            out: LinComb = {}
            if field == "-":
                return out
            last = -1
            for term in field.split(","):
                w, c = term.split(":")
                w = int(w)
                if not last < w < num_wires:
                    raise ValueError(f"term {term!r}: wire out of order or out of range")
                coefficient = coefficients.get(c)
                if coefficient is None:
                    coefficient = coefficients[c] = int(c, 16)
                    if coefficient >= modulus:
                        raise ValueError(f"term {term!r}: coefficient out of range")
                out[wire_ids[w]] = coefficient
                last = w
            return out

        constraints = []
        for row in rows[:-1]:
            if not _EXPORT_ROW.fullmatch(row):
                raise ValueError(f"r1cs export row {len(constraints)} is malformed")
            a, b, c = row.split("|")
            constraints.append((lc(a), lc(b), lc(c)))
        cs = cls(modulus)
        cs.wires += [_Wire(i, i <= num_public, None, None, False) for i in range(1, num_wires)]
        cs.num_public = num_public
        cs.constraints = constraints
        cs.finalize()
        return cs


def fingerprint_of(exported: bytes) -> str:
    """Circuit fingerprint: SHA-256 of the canonical export."""
    return hashlib.sha256(exported).hexdigest()
