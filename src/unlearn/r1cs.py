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

Each wire gets its value when it is allocated: gadgets compute it from
the values of the wires they read, so building a circuit for given inputs
also yields its witness (``witness``).  The rows never depend on the
values, so every input gives the same export.  Statement wires are
allocated first and assigned once the body that computes them is built.

A prover that already holds the rows (the export ``setup`` stored) needs
only the values: a system made with ``values_only=True`` runs the same
gadgets but ``enforce`` records nothing, and every operation that reads
rows raises RowsNotRecorded rather than treat the empty row set as the
circuit.

Most private wires are fixed by the rows that read them first: a row
whose C is one wire with coefficient 1, above every wire of its A, B and
of all earlier rows, *defines* that wire as <A,z> * <B,z>.  ``project``
keeps the constant, the statement and the other, *free*, wires of a
witness; ``complete`` rebuilds the one satisfying witness with that
projection in one walk over the rows, or raises Unsatisfied naming the
first row that fails.  It is the only evaluator of rows: ``check``
judges a whole witness by completing its projection.
"""

from __future__ import annotations

import gc
import hashlib
import struct
import sys
from array import array
from collections import deque
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice, repeat, tee
from operator import ge, lt, mul, sub
from typing import Iterator, Optional, Sequence

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


class RowsNotRecorded(RuntimeError):
    """Raised when reading the rows of a values-only system."""


class Unsatisfied(ValueError):
    """No satisfying witness has the given values.  ``row`` is the first
    row that fails, or None when the values have the wrong length or a
    constant other than 1."""

    def __init__(self, row: Optional[int]):
        self.row = row
        super().__init__(
            "the wire values have the wrong length or constant" if row is None
            else f"row {row} does not hold"
        )


class WitnessSynthesisError(ValueError):
    """A wire has no valid value for the given inputs (e.g. the inverse of
    zero, or a value too wide for its range check)."""


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a block that allocates many
    long-lived objects and frees few, as building a circuit does: its
    collections there find nothing to free.  Nested blocks leave it paused
    until the outermost one ends."""
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
    term_count: int  # nonzero entries of A, B and C together


@dataclass(frozen=True)
class Witness:
    """Full wire assignment: constant 1, then public, then private."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))


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

    def rows_increasing(self) -> bool:
        """Whether the wire ids increase strictly within every row: each
        term whose wire is not above the one before must start a row.
        The row starts are marked one byte per term, which holds far less
        than a set of them while the export loads."""
        wires = self.wires
        starts = bytearray(len(wires) + 1)
        deque(map(starts.__setitem__, accumulate(self.counts), repeat(1)), maxlen=0)
        drops = compress(count(1), map(ge, wires, islice(wires, 1, None)))
        return all(map(starts.__getitem__, drops))


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
    def __init__(self, modulus: int, values_only: bool = False):
        self.modulus = modulus
        self.values_only = values_only
        # The value of each wire, reduced mod p; wire 0 is the constant 1.
        self.values: list[int] = [1]
        self.num_public = 0
        self._num_wires = 1
        # Coefficient -> id, in id order; _table is the same list of
        # coefficients, brought up to date when read.
        self._coefficient_ids: dict[int, int] = {}
        self._table: list[int] = []
        self._matrices = tuple(_Matrix(_u32s(), _u32s(), _u32s()) for _ in range(3))
        self._finalized = False
        self._defining: Optional[list[tuple[int, int]]] = None

    # -- building ----------------------------------------------------------

    def _alloc(self, is_public: bool, value: int) -> int:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        idx = self._num_wires
        if is_public:
            if idx != self.num_public + 1:
                raise ValueError("public wires must be allocated first")
            self.num_public += 1
        self.values.append(value % self.modulus)
        self._num_wires += 1
        return idx

    def alloc_public(self, value: int = 0) -> int:
        return self._alloc(True, value)

    def alloc_private(self, value: int = 0, name: Optional[str] = None) -> int:
        """A private wire holding ``value``.  ``name`` only labels the call
        site; it is not stored."""
        return self._alloc(False, value)

    def enforce(self, a: LinComb, b: LinComb, c: LinComb) -> None:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        if self.values_only:
            return
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

    def _rows_recorded(self) -> tuple[_Matrix, _Matrix, _Matrix]:
        if self.values_only:
            raise RowsNotRecorded("a values-only constraint system records no rows")
        return self._matrices

    # -- introspection ------------------------------------------------------

    @property
    def num_wires(self) -> int:
        return self._num_wires

    @property
    def num_private(self) -> int:
        return self._num_wires - 1 - self.num_public

    @property
    def num_constraints(self) -> int:
        return len(self._rows_recorded()[0].counts)

    @property
    def constraints(self) -> _Rows:
        self._rows_recorded()
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
        terms = sum(len(m.wires) for m in self._rows_recorded())
        return CircuitStats(self.num_constraints, self.num_public, self.num_private, terms)

    def witness(self) -> Witness:
        """The values assigned while building."""
        return Witness(self.values)

    # -- evaluation ----------------------------------------------------------

    def lc_value(self, lc: LinComb, values: Optional[Sequence[int]] = None) -> int:
        """Value of a linear combination under ``values``, by default the
        values assigned so far."""
        if values is None:
            values = self.values
        return sum(c * values[w] for w, c in lc.items()) % self.modulus

    def _row_sums(self, values: Sequence[int]) -> Iterator[Iterator[int]]:
        """<A,z>, <B,z> and <C,z> of each row in turn, unreduced.  Streams
        the flat arrays: each row's terms are read, from ``values`` as it
        is then, only when its sum is taken, and nothing is kept per row."""
        table = self._coefficients()

        def sums(m: _Matrix) -> Iterator[int]:
            terms = map(mul, map(values.__getitem__, m.wires),
                        map(table.__getitem__, m.coefficients))
            return map(sum, map(islice, repeat(terms), m.counts))

        return map(sums, self._rows_recorded())

    # -- free and derived wires ---------------------------------------------------

    def _defining_rows(self) -> list[tuple[int, int]]:
        """Each row that defines a wire, with that wire, in row order; kept
        once the system is finalized, as rows can no longer change.  Row
        i *defines* private wire w when C_i is exactly {w: 1} and w is above
        every wire of A_i, B_i and of all earlier rows, so that w =
        <A_i,z> * <B_i,z> follows from wires a walk in row order already
        knows.  Every private wire no row defines is *free*.

        Reads the rows only, never values, so every witness of one circuit
        splits the same way.  Wire ids increase within a row, so a row's
        largest wire in each matrix is its last term, read at the row's
        end offset; an empty row reads the row before it, which raises no
        maximum."""
        if self._defining is not None:
            return self._defining
        a, b, c = self._rows_recorded()

        def padded(values: array) -> array:
            out = array(_U32_CODE, (0,))
            out += values
            return out

        a_wires, b_wires, c_wires = padded(a.wires), padded(b.wires), padded(c.wires)
        c_coefficients = padded(c.coefficients)
        one = self._coefficient_ids.get(1, -1)
        top = self.num_public  # the largest wire so far: only private ones are defined
        defining = []
        for row, end_a, end_b, end_c, c_terms in zip(
            count(), accumulate(a.counts), accumulate(b.counts), accumulate(c.counts), c.counts
        ):
            if a_wires[end_a] > top:
                top = a_wires[end_a]
            if b_wires[end_b] > top:
                top = b_wires[end_b]
            w = c_wires[end_c]
            if w > top:
                top = w
                if c_terms == 1 and c_coefficients[end_c] == one:
                    defining.append((row, w))
        if self._finalized:
            self._defining = defining
        return defining

    def _kept(self) -> bytearray:
        """1 for each wire a projection keeps: the constant, the statement
        and the free wires."""
        kept = bytearray(b"\x01") * self._num_wires
        for _, w in self._defining_rows():
            kept[w] = 0
        return kept

    def free_wires(self) -> list[int]:
        """The private wires no row defines, in increasing order."""
        start = 1 + self.num_public
        return list(compress(range(start, self._num_wires), self._kept()[start:]))

    def project(self, witness: Witness) -> list[int]:
        """What ``complete`` rebuilds ``witness`` from: the values of the
        constant, the statement, then the free wires in increasing order."""
        return list(compress(witness.values, self._kept()))

    def complete(self, given: Sequence[int], expect: Optional[Sequence[int]] = None) -> Witness:
        """The one satisfying witness whose projection is ``given`` (field
        elements, as ``project`` lists them); raises Unsatisfied, naming
        the first row that fails, if there is none.  One walk over the
        rows: before each defining row, the free wires below its wire take
        the next values of ``given``, the rows since the last defining row
        must hold, and the row assigns its wire <A_i,z> * <B_i,z> mod p.
        Rows after the last defining row must hold once every free wire
        is placed.

        ``expect`` is a whole witness whose projection is ``given``.  A
        defining row that assigns its wire another value than ``expect``
        holds is the first row ``expect`` fails, as every wire it reads
        agrees with ``expect``; the walk stops there."""
        placed = 1 + self.num_public
        z = list(given[:placed])
        if len(z) != placed or z[0] != 1:
            raise Unsatisfied(None)
        p = self.modulus
        a, b, c = self._row_sums(z)
        residues = map(p.__rmod__, map(sub, map(mul, a, b), c))
        checked = 0  # rows walked so far
        for row, w in self._defining_rows():
            need = w - len(z)
            if need:
                z += given[placed:placed + need]
                placed += need
                if len(z) != w:
                    raise Unsatisfied(None)
            # These rows read only wires below w, all placed by now.  any()
            # stops at the first that fails; the rows it left give its index.
            rows = islice(residues, row - checked)
            if any(rows):
                raise Unsatisfied(row - 1 - sum(1 for _ in rows))
            value = next(a) * next(b) % p
            if expect is not None and value != expect[w]:
                raise Unsatisfied(row)
            z.append(value)
            next(c)
            checked = row + 1
        z += given[placed:]
        if len(z) != self._num_wires:
            raise Unsatisfied(None)
        if any(residues):
            raise Unsatisfied(self.num_constraints - 1 - sum(1 for _ in residues))
        return Witness(z)

    def check(self, witness: Witness) -> None:
        """Raise Unsatisfied, naming the first row ``witness`` fails, unless
        it satisfies every row: ``complete`` rebuilds it from its
        projection."""
        given = self.project(witness)
        if len(witness.values) != self._num_wires:
            raise Unsatisfied(None)
        self.complete(given, expect=witness.values)

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
        self._rows_recorded()
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
        witnesses; it has no wire values of its own.  Strict: input that
        ``export()`` would not write raises ValueError, so
        ``from_export(x).export() == x`` whenever it returns."""
        # Slices of a view copy nothing: loading holds the input and the
        # arrays it fills, no third copy.
        data = memoryview(bytes(data))
        pos = 0

        def take(n: int) -> memoryview:
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
        cs.values = []
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
