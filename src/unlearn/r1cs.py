"""Rank-1 constraint system builder and witness evaluation.

Constraints have the form <A,z> * <B,z> = <C,z> where z is the wire vector:
wire 0 is the constant 1, wires 1..num_public are the statement, and the
remainder are private.  Gadgets build linear combinations as sparse dicts
{wire: coeff}; ``enforce`` stores each row straight into flat arrays in
compressed sparse row form.  Per matrix A, B and C there are three
``array('I')``: the term count of each row, the wire ids (strictly
increasing within a row) and coefficient ids into one table of the
distinct nonzero coefficients.  Those arrays are also the export format,
so building, fingerprinting, storing, loading and evaluating all use one
encoding.

Wires may carry a hint closure that computes their value from earlier wires
during witness synthesis; statement wires whose value is only known at the
end of the computation (hash outputs) use deferred hints, evaluated in a
second pass.
"""

from __future__ import annotations

import gc
import hashlib
import struct
import sys
from array import array
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from operator import ge, lt, mul, sub
from typing import Callable, Iterator, Mapping, Optional, Sequence

LinComb = dict[int, int]

# export() layout, every integer little-endian:
#   magic "unlearn-r1cs v2\n"
#   k (u32), then the modulus in k bytes, k minimal
#   wires, public, rows, coefficients (u32 each)
#   the coefficient table: that many k-byte values, strictly increasing,
#     each in [1, modulus) and each used by some term
#   for A, B and C in turn: term counts (rows x u32), then wire ids and
#     coefficient ids (one u32 per term each)
MAGIC = b"unlearn-r1cs v2\n"
_U32 = struct.Struct("<I")
_COUNTS = struct.Struct("<4I")
_U32_CODE = "I" if array("I").itemsize == 4 else "L"
_BIG_ENDIAN = sys.byteorder == "big"


class BuildPhaseClosed(RuntimeError):
    """Raised when allocating or enforcing after finalization."""


class WitnessSynthesisError(ValueError):
    """A hint has no valid value (e.g. inverse of zero) or an input is
    missing."""


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a block that allocates many
    long-lived objects and frees few, as building a circuit or
    synthesizing a witness does: its collections there find nothing to
    free.  Nested blocks leave it paused until the outermost one ends."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


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


@dataclass(slots=True)
class _Wire:
    index: int
    is_public: bool
    name: Optional[str]
    hint: Optional[Callable]
    deferred: bool


def _u32s(data=b"") -> array:
    out = array(_U32_CODE)
    out.frombytes(data)
    if _BIG_ENDIAN:
        out.byteswap()
    return out


def _le_bytes(values: array) -> bytes:
    if _BIG_ENDIAN:
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def _increasing(values) -> bool:
    ahead, behind = tee(values)
    next(ahead, None)
    return all(map(lt, behind, ahead))


class _Matrix:
    """One of A, B, C: per-row term counts, then each term's wire id and
    coefficient id, row after row."""

    __slots__ = ("counts", "wires", "coefficients", "_offsets")

    def __init__(self, counts: array, wires: array, coefficients: array):
        self.counts, self.wires, self.coefficients = counts, wires, coefficients
        self._offsets: Optional[list[int]] = None

    def span(self, row: int) -> tuple[int, int]:
        """Start and end of a row's terms."""
        if row == len(self.counts) - 1:
            return len(self.wires) - self.counts[row], len(self.wires)
        offsets = self._offsets
        if offsets is None or len(offsets) != len(self.counts) + 1:
            offsets = self._offsets = list(accumulate(self.counts, initial=0))
        return offsets[row], offsets[row + 1]

    def row_ids(self) -> Iterator[int]:
        """The row of each term, in term order."""
        return chain.from_iterable(map(repeat, range(len(self.counts)), self.counts))

    def rows_increasing(self) -> bool:
        """Whether the wire ids increase strictly within every row: each
        term whose wire is not above the one before must start a row."""
        wires = self.wires
        drops = compress(count(1), map(ge, wires[:-1], wires[1:]))
        starts = set(accumulate(self.counts))
        return all(map(starts.__contains__, drops))


class _Rows(SequenceABC):
    """Read-only view of a system's rows: row i is its (A, B, C) linear
    combinations as dicts, as ``enforce`` stored them."""

    __slots__ = ("_cs",)

    def __init__(self, cs: "ConstraintSystem"):
        self._cs = cs

    def __len__(self) -> int:
        return self._cs.num_constraints

    def __getitem__(self, i: int) -> tuple[LinComb, LinComb, LinComb]:
        n = len(self)
        if not -n <= i < n:
            raise IndexError("constraint index out of range")
        return self._cs._row(i % n)


class ConstraintSystem:
    def __init__(self, modulus: int):
        self.modulus = modulus
        self.wires: list[_Wire] = [_Wire(0, False, "~one", None, False)]
        self.num_public = 0
        self._num_wires = 1
        # Coefficient -> id, in id order; _table is the same list of
        # coefficients, brought up to date when read.
        self._coefficient_ids: dict[int, int] = {}
        self._table: list[int] = []
        self._matrices = tuple(_Matrix(_u32s(), _u32s(), _u32s()) for _ in range(3))
        self._finalized = False
        self._touch_index: Optional[list[list[int]]] = None

    # -- building ----------------------------------------------------------

    def _alloc(self, is_public, name, hint, deferred) -> int:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        idx = self._num_wires
        self.wires.append(_Wire(idx, is_public, name, hint, deferred))
        self._num_wires += 1
        if is_public:
            if idx != self.num_public + 1:
                raise ValueError("public wires must be allocated first")
            self.num_public += 1
        return idx

    def alloc_public(self, name=None, hint=None, deferred=False) -> int:
        return self._alloc(True, name, hint, deferred)

    def alloc_private(self, name=None, hint=None, deferred=False) -> int:
        return self._alloc(False, name, hint, deferred)

    def enforce(self, a: LinComb, b: LinComb, c: LinComb) -> None:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        rows = (sorted(a.items()), sorted(b.items()), sorted(c.items()))
        for terms in rows:
            if terms and not (terms[0][0] >= 0 and terms[-1][0] < self._num_wires):
                bad = terms[0][0] if terms[0][0] < 0 else terms[-1][0]
                raise ValueError(f"unallocated wire {bad}")
        p = self.modulus
        ids = self._coefficient_ids
        for m, terms in zip(self._matrices, rows):
            n = 0
            for w, v in terms:
                v %= p
                if v:
                    m.wires.append(w)
                    m.coefficients.append(ids.setdefault(v, len(ids)))
                    n += 1
            m.counts.append(n)

    def finalize(self) -> None:
        self._finalized = True

    # -- introspection ------------------------------------------------------

    @property
    def num_wires(self) -> int:
        return self._num_wires

    @property
    def num_private(self) -> int:
        return self._num_wires - 1 - self.num_public

    @property
    def num_constraints(self) -> int:
        return len(self._matrices[0].counts)

    @property
    def constraints(self) -> _Rows:
        return _Rows(self)

    def _coefficients(self) -> list[int]:
        if len(self._table) != len(self._coefficient_ids):
            self._table = list(self._coefficient_ids)
        return self._table

    def _row(self, i: int) -> tuple[LinComb, LinComb, LinComb]:
        """Constraint i as its three linear combinations."""
        table = self._coefficients()
        out = []
        for m in self._matrices:
            lo, hi = m.span(i)
            out.append(dict(zip(m.wires[lo:hi], map(table.__getitem__, m.coefficients[lo:hi]))))
        return tuple(out)

    def stats(self) -> CircuitStats:
        return CircuitStats(self.num_constraints, self.num_public, self.num_private)

    # -- witness synthesis ---------------------------------------------------

    def synthesize(self, inputs: Mapping[str, int]) -> Witness:
        if len(self.wires) != self._num_wires:
            raise WitnessSynthesisError("a loaded constraint system has no hints or names")
        values: list[Optional[int]] = [None] * self._num_wires
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

    def _residues(self, values: Sequence[int]) -> Iterator[int]:
        """(<A,z> * <B,z> - <C,z>) mod p for each row in turn; a row holds
        iff its residue is 0.  Streams the flat arrays: each row's terms
        are summed as they are read, and nothing is kept per row."""
        table = self._coefficients()

        def sums(m: _Matrix) -> Iterator[int]:
            terms = map(mul, map(values.__getitem__, m.wires),
                        map(table.__getitem__, m.coefficients))
            return map(sum, map(islice, repeat(terms), m.counts))

        a, b, c = map(sums, self._matrices)
        return map(self.modulus.__rmod__, map(sub, map(mul, a, b), c))

    def _holds(self, i: int, values: Sequence[int]) -> bool:
        a, b, c = self._row(i)
        return (
            self.lc_value(a, values) * self.lc_value(b, values) - self.lc_value(c, values)
        ) % self.modulus == 0

    def is_satisfied(self, witness: Witness) -> bool:
        values = witness.values
        if len(values) != self._num_wires or values[0] != 1:
            return False
        return not any(self._residues(values))

    def failing_constraints(self, witness: Witness) -> list[int]:
        return list(compress(count(), self._residues(witness.values)))

    def constraints_touching(self, wire: int) -> list[int]:
        if self._touch_index is None:
            index: list[list[int]] = [[] for _ in range(self._num_wires)]
            for m in self._matrices:
                for w, i in zip(m.wires, m.row_ids()):
                    index[w].append(i)
            self._touch_index = [sorted(set(rows)) for rows in index]
        return self._touch_index[wire]

    def satisfied_at_wire(self, witness: Witness, wire: int) -> bool:
        """Check only the constraints referencing one wire: sufficient to
        decide satisfiability after a single-wire mutation of a witness
        that satisfied the full system."""
        values = witness.values
        return all(self._holds(i, values) for i in self.constraints_touching(wire))

    # -- canonical export ------------------------------------------------------

    def _sort_table(self) -> None:
        """Renumber coefficients in increasing order, the canonical order
        of the exported table.  A no-op once sorted."""
        table = self._coefficients()
        if _increasing(table):
            return
        order = sorted(range(len(table)), key=table.__getitem__)
        renumber = [0] * len(table)
        for new, old in enumerate(order):
            renumber[old] = new
        self._table = [table[i] for i in order]
        self._coefficient_ids = {c: i for i, c in enumerate(self._table)}
        for m in self._matrices:
            m.coefficients = array(_U32_CODE, map(renumber.__getitem__, m.coefficients))

    def export(self) -> bytes:
        """The binary layout above: the preimage of the circuit
        fingerprint, the file ``setup`` stores for verifiers (read back
        by ``from_export``) and the external proving backend's input."""
        self._sort_table()
        p = self.modulus
        k = (p.bit_length() + 7) // 8
        parts = [
            MAGIC,
            _U32.pack(k),
            p.to_bytes(k, "little"),
            _COUNTS.pack(self._num_wires, self.num_public, self.num_constraints, len(self._table)),
            b"".join(c.to_bytes(k, "little") for c in self._table),
        ]
        for m in self._matrices:
            parts += (_le_bytes(m.counts), _le_bytes(m.wires), _le_bytes(m.coefficients))
        return b"".join(parts)

    def fingerprint(self) -> str:
        return fingerprint_of(self.export())

    @classmethod
    def from_export(cls, data: bytes) -> "ConstraintSystem":
        """Load ``export()`` output into a finalized system that evaluates
        witnesses; it has no wire records (names or hints), so it cannot
        synthesize one.  Strict: input that ``export()`` would not write
        raises ValueError, so ``from_export(x).export() == x`` whenever
        it returns."""
        data = bytes(data)
        pos = 0

        def take(n: int) -> bytes:
            nonlocal pos
            if n > len(data) - pos:
                raise ValueError("r1cs export is truncated")
            pos += n
            return data[pos - n:pos]

        if take(len(MAGIC)) != MAGIC:
            raise ValueError("not an unlearn-r1cs v2 export")
        (k,) = _U32.unpack(take(_U32.size))
        modulus = int.from_bytes(take(k), "little")
        if modulus < 2 or k != (modulus.bit_length() + 7) // 8:
            raise ValueError("r1cs export modulus is not canonical")
        num_wires, num_public, num_rows, num_coefficients = _COUNTS.unpack(take(_COUNTS.size))
        if num_public >= num_wires:
            raise ValueError(f"{num_public} public wires out of {num_wires}")
        raw = take(num_coefficients * k)
        table = [int.from_bytes(raw[i:i + k], "little") for i in range(0, len(raw), k)]
        if not _increasing(table):
            raise ValueError("r1cs coefficient table is not strictly increasing")
        if table and not (table[0] > 0 and table[-1] < modulus):
            raise ValueError("r1cs coefficient is zero or not below the modulus")
        matrices, used = [], set()
        for name in "ABC":
            counts = _u32s(take(4 * num_rows))
            terms = sum(counts)
            wires = _u32s(take(4 * terms))
            coefficients = _u32s(take(4 * terms))
            m = _Matrix(counts, wires, coefficients)
            if terms:
                if max(wires) >= num_wires:
                    raise ValueError(f"matrix {name}: wire out of range")
                if max(coefficients) >= num_coefficients:
                    raise ValueError(f"matrix {name}: coefficient id out of range")
                if not m.rows_increasing():
                    raise ValueError(f"matrix {name}: wires repeated or out of order in a row")
            used.update(coefficients)
            matrices.append(m)
        if pos != len(data):
            raise ValueError("r1cs export has trailing bytes")
        if len(used) != num_coefficients:
            raise ValueError("r1cs coefficient table has unused entries")
        cs = cls(modulus)
        cs.wires = []
        cs._num_wires = num_wires
        cs.num_public = num_public
        cs._coefficient_ids = dict(zip(table, count()))
        cs._table = table
        cs._matrices = tuple(matrices)
        cs.finalize()
        return cs


def fingerprint_of(exported: bytes) -> str:
    """Circuit fingerprint: SHA-256 of the canonical export."""
    return hashlib.sha256(exported).hexdigest()
