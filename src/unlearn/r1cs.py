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
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

LinComb = dict[int, int]


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
        backend; also the preimage of the circuit fingerprint.
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
        return hashlib.sha256(self.export()).hexdigest()
