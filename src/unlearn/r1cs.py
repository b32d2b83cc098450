"""Rank-1 constraint system builder and witness evaluation.

Constraints have the form <A,z> * <B,z> = <C,z> where z is the wire vector:
wire 0 is the constant 1, wires 1..num_public are the statement, and the
remainder are private.  Rows are stored in flat arrays in compressed
sparse row form.  Per matrix A, B and C there are three ``array('I')``:
the term count of each row, the wire ids (strictly increasing within a
row) and coefficient ids into one table of the distinct nonzero
coefficients.  Those arrays are also the export format, so building,
fingerprinting, storing, loading and evaluating all use one encoding.

Two methods write rows.  ``enforce`` takes one row as three sparse dicts
{wire: coeff}: it sorts each, reduces the coefficients, drops zeros and
checks that every wire is allocated.  It is the reference, and any row
may go through it.  ``enforce_block`` takes a block of rows already in
the stored layout, sorted and reduced, and checks the block as a whole
instead of term by term: no wire or count negative (the unsigned arrays
refuse one), every wire allocated (by the greatest), the wires strictly
increasing within each row, the terms adding up to the counts, and each
coefficient new to the table in [1, p).  The gadgets that write most of a circuit's rows, bit
decompositions and MiMC rounds, write each call's rows as one block,
the same rows ``enforce`` would store one by one.

A system holds rows only, never wire values: a circuit is built once
from its shape, and every input gives the same export.  Statement wires
are allocated first.  A witness comes from the rows alone, as below.

Most private wires are fixed by the rows that read them first.  A row
whose C ends in a wire with coefficient 1, above every wire of its A, B
and of all earlier rows, *defines* that wire as <A,z> * <B,z> less the
rest of C, which lies below it.  A row whose C ends in n >= 2 consecutive
such new wires with coefficients 2^0 ... 2^(n-1), as a bit
decomposition's sum row a * 1 = sum 2^i b_i does, defines all n as the
binary digits of the rest of the row, and holds no value of 2^n or more.
A witness's *projection* is its constant, its statement and its other,
*free*, wires (``free_wires``); ``complete`` rebuilds the one satisfying
witness, a tuple of wire values, from its projection in one walk over
the rows, or raises Unsatisfied naming the first row that fails.  It is
the only evaluator of rows: a prover that holds the stored rows computes
a projection from its inputs and completes it, which is also its check,
and a witness-check verifier completes the projection a proof carries.
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
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat, tee
from operator import ge, lt, mul, sub
from typing import Iterator, Optional, Sequence

LinComb = dict[int, int]
# A block of rows in one matrix: each row's term count, then each term's
# wire id and coefficient, row after row (``enforce_block``).
Block = tuple[Sequence[int], Sequence[int], Sequence[int]]

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


def _block_rows_increasing(counts: Sequence[int], wires: Sequence[int]) -> bool:
    """Whether the wire ids of a block increase strictly within every row:
    those of the whole block do, or each term whose wire is not above the
    one before starts a row.  A block has few rows, so its row starts go
    into a set; a whole matrix marks them in a bytearray instead
    (``_Matrix.rows_increasing``)."""
    if all(map(lt, wires, islice(wires, 1, None))):
        return True
    drops = compress(count(1), map(ge, wires, islice(wires, 1, None)))
    return set(accumulate(counts)).issuperset(drops)


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
    def __init__(self, modulus: int):
        self.modulus = modulus
        self.num_public = 0
        self._num_wires = 1  # wire 0 is the constant 1
        # Coefficient -> id, in id order; _table is the same list of
        # coefficients, brought up to date when read.
        self._coefficient_ids: dict[int, int] = {}
        self._table: list[int] = []
        self._matrices = tuple(_Matrix(_u32s(), _u32s(), _u32s()) for _ in range(3))
        self._finalized = False
        self._defining: Optional[list[tuple[int, int, int]]] = None

    # -- building ----------------------------------------------------------

    def _alloc(self, is_public: bool) -> int:
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        idx = self._num_wires
        if is_public:
            if idx != self.num_public + 1:
                raise ValueError("public wires must be allocated first")
            self.num_public += 1
        self._num_wires += 1
        return idx

    def alloc_public(self) -> int:
        return self._alloc(True)

    def alloc_private(self, *, name: Optional[str] = None) -> int:
        """A new private wire.  ``name`` only labels the call site; it is
        not stored."""
        return self._alloc(False)

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

    def enforce_block(self, a: Block, b: Block, c: Block) -> None:
        """Append a block of rows at once: for each of A, B and C, the
        rows' term counts, then every term's wire and coefficient, row
        after row, in the flat layout the system stores.  The rows are
        those ``enforce`` would store one by one, so each row's wires
        must increase strictly and each coefficient lie in [1, modulus).
        The block is checked as a whole, not term by term, before
        anything is stored, and refused as ``enforce`` refuses a row:
        BuildPhaseClosed once finalized, ValueError for an unallocated
        wire; and ValueError for terms that do not add up to the counts,
        a negative count or wire, a repeated or unordered wire in a row,
        or a coefficient out of range.  Coefficients already in the table
        were checked when they entered it, so only new ones are."""
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        blocks = (a, b, c)
        rows = len(a[0])
        arrays = []  # each matrix's counts and wire ids
        for name, (counts, wires, coefficients) in zip("ABC", blocks):
            if len(counts) != rows or not sum(counts) == len(wires) == len(coefficients):
                raise ValueError(f"block {name}: terms do not match the row counts")
            try:
                arrays.append((array(_U32_CODE, counts), array(_U32_CODE, wires)))
            except OverflowError:
                raise ValueError(f"block {name}: a negative count or wire") from None
            if wires:
                if max(wires) >= self._num_wires:
                    raise ValueError(f"unallocated wire {max(wires)}")
                if not _block_rows_increasing(counts, wires):
                    raise ValueError(f"block {name}: wires repeated or out of order in a row")
        ids = self._coefficient_ids

        def numbered() -> list[array]:
            return [array(_U32_CODE, map(ids.__getitem__, block[2])) for block in blocks]

        try:
            coefficient_ids = numbered()
        except KeyError:
            # New coefficients: checked, then numbered in first-use order.
            fresh = list(filterfalse(ids.__contains__, dict.fromkeys(chain(a[2], b[2], c[2]))))
            if not (min(fresh) > 0 and max(fresh) < self.modulus):
                raise ValueError("block coefficient is zero or not reduced") from None
            ids.update(zip(fresh, count(len(ids))))
            coefficient_ids = numbered()
        for m, (counts, wires), coefficients in zip(self._matrices, arrays, coefficient_ids):
            m.counts.extend(counts)
            m.wires.extend(wires)
            m.coefficients.extend(coefficients)

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
        terms = sum(len(m.wires) for m in self._matrices)
        return CircuitStats(self.num_constraints, self.num_public, self.num_private, terms)

    # -- evaluation ----------------------------------------------------------

    def _row_sums(self, values: Sequence[int]) -> Iterator[Iterator[int]]:
        """<A,z>, <B,z> and <C,z> of each row in turn, unreduced.  Streams
        the flat arrays: each row's terms are read, from ``values`` as it
        is then, only when its sum is taken, and nothing is kept per row."""
        table = self._coefficients()

        def sums(m: _Matrix) -> Iterator[int]:
            terms = map(mul, map(values.__getitem__, m.wires),
                        map(table.__getitem__, m.coefficients))
            return map(sum, map(islice, repeat(terms), m.counts))

        return map(sums, self._matrices)

    # -- free and derived wires ---------------------------------------------------

    def _defining_rows(self) -> list[tuple[int, int, int]]:
        """Each row that defines wires, with its first wire w and their
        number n, in row order; kept once the system is finalized, as rows
        can no longer change.  Row i *defines* private wire w (n = 1) when
        w is the last term of C_i, with coefficient 1, and above every
        wire of A_i, B_i and of all earlier rows, so that w = <A_i,z> *
        <B_i,z> - <C_i - w, z> follows from wires a walk in row order
        already knows.  It defines the n >= 2 wires w ... w+n-1 when they
        are the last n terms of C_i, with coefficients 2^0 ... 2^(n-1), and
        w is above every wire of A_i, B_i and of all earlier rows: they are
        the binary digits of <A_i,z> * <B_i,z> less the rest of C_i, which
        is below 2^n if the row holds.  n stays below the modulus's bit
        length, so the digits are unique.  Every private wire no row
        defines is *free*.

        Reads the rows only, never values, so every witness of one circuit
        splits the same way.  Wire ids increase within a row, so a row's
        largest wire in each matrix is its last term, read at the row's
        end offset; an empty row reads the row before it, which raises no
        maximum."""
        if self._defining is not None:
            return self._defining
        a, b, c = self._matrices
        a_wires, b_wires, c_wires, c_coefficients = (
            array(_U32_CODE, (0,)) + v for v in (a.wires, b.wires, c.wires, c.coefficients)
        )
        # The ids of 2^0, 2^1, ...: a defining row's last coefficients, in
        # order, and the number of wires each id ends.
        ids = self._coefficient_ids
        powers = [ids.get(1 << i, -1) for i in range(self.modulus.bit_length() - 1)]
        widths = dict(zip(powers, count(1)))
        top = self.num_public  # the largest wire so far: only private ones are defined
        defining = []
        for row, end_a, end_b, end_c, terms_c in zip(
            count(), accumulate(a.counts), accumulate(b.counts), accumulate(c.counts), c.counts
        ):
            if a_wires[end_a] > top:
                top = a_wires[end_a]
            if b_wires[end_b] > top:
                top = b_wires[end_b]
            w = c_wires[end_c]
            if w > top:
                n = widths.get(c_coefficients[end_c], 0)
                if n == 1 or (
                    1 < n <= terms_c
                    and c_wires[end_c - n + 1] == w - n + 1 > top
                    and c_coefficients[end_c - n + 1:end_c + 1].tolist() == powers[:n]
                ):
                    defining.append((row, w - n + 1, n))
                top = w
        if self._finalized:
            self._defining = defining
        return defining

    def free_wires(self) -> list[int]:
        """The private wires no row defines, in increasing order."""
        free = bytearray(b"\x01") * self._num_wires
        for _, w, n in self._defining_rows():
            free[w:w + n] = bytes(n)
        start = 1 + self.num_public
        return list(compress(range(start, self._num_wires), free[start:]))

    @property
    def num_free(self) -> int:
        """The number of free wires: the private wires less those the
        defining rows define."""
        return self.num_private - sum(n for _, _, n in self._defining_rows())

    def complete(self, given: Sequence[int]) -> tuple[int, ...]:
        """The wire values of the one satisfying witness whose projection
        is ``given``: field elements, the constant, the statement, then
        the free wires in increasing order.  Raises Unsatisfied, naming
        the first row that fails, if there is none.  One walk over the
        rows: before each defining row, the free wires below its wires
        take the next values of ``given``, the rows since the last
        defining row must hold, and the row assigns its wires from r =
        <A_i,z> * <B_i,z> - <C_i - its wires, z> mod p, the sums taken
        with its wires at 0: one wire takes r, and n wires take the n
        binary digits of r, which fails the row if r >= 2^n.  Rows after
        the last defining row must hold once every free wire is placed."""
        placed = 1 + self.num_public
        z = list(given[:placed])
        if len(z) != placed or z[0] != 1:
            raise Unsatisfied(None)
        p = self.modulus
        a, b, c = self._row_sums(z)
        residues = map(p.__rmod__, map(sub, map(mul, a, b), c))
        checked = 0  # rows walked so far
        for row, w, n in self._defining_rows():
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
            z += [0] * n
            value = (next(a) * next(b) - next(c)) % p
            if n == 1:
                z[w] = value
            elif value >> n:
                raise Unsatisfied(row)
            else:
                z[w:] = map(int, reversed(f"{value:0{n}b}"))
            checked = row + 1
        z += given[placed:]
        if len(z) != self._num_wires:
            raise Unsatisfied(None)
        if any(residues):
            raise Unsatisfied(self.num_constraints - 1 - sum(1 for _ in residues))
        return tuple(z)

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
        """Load ``export()`` output into a finalized system.  Strict: input that
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
