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
A row whose C is exactly the constant 1 and whose B is one such new wire
v with coefficient 1, as a nonzero check's a * v = 1 is, defines v as
<A,z>^-1, and holds for no v when <A,z> is 0.  Its C must be the
constant 1: a C that could be 0 would hold for every v once <A,z> is 0.
A witness's *projection* is its constant, its statement and its other,
*free*, wires (``free_wires``); ``complete`` rebuilds the one satisfying
witness, a list of wire values, from its projection in one walk over
the rows, or raises Unsatisfied naming the first row that fails.  It is
the only evaluator of rows: a prover that holds the stored rows computes
a projection from its inputs and completes it, which is also its check,
and a witness-check verifier completes the projection a proof carries.

Most rows are not evaluated one by one.  The pass that finds the
defining rows (``walk.scan``) also certifies, from the rows alone, the
blocks the gadgets write for most of every circuit: a *boolean run*, a
sum row's n digit rows b * (1 - b) = 0 in digit order, and a *round
chain*, the 3R rows of one MiMC permutation, each defining its wire.
The walk skips a run, whose rows hold for the 0s and 1s the sum row has
just set, and computes a chain's wires in the native round loop, the
values its rows define; it evaluates every other row in order.  So it
returns the same witness and names the same first failing row as a walk
row by row, and the strict load checks in-row order only outside the
blocks, whose rows the certificate compared exactly.
"""

from __future__ import annotations

import gc
import io
import struct
import sys
from array import array
from collections import deque
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, filterfalse, islice, repeat, tee
from operator import ge, lt
from typing import TYPE_CHECKING, BinaryIO, Optional, Sequence

from .hashing import sha256

if TYPE_CHECKING:
    from .walk import Scan

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
# Terms per chunk of a renumbered or byte-swapped array written out; an
# input's unread rest is hashed 4 * _CHUNK bytes at a time.
_CHUNK = 1 << 18


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


class DigestMismatch(ValueError):
    """An export's SHA-256 is not the fingerprint it was read under."""


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
        self._matrices = tuple(_Matrix(*(array(_U32_CODE) for _ in range(3))) for _ in range(3))
        self._finalized = False
        self._scanned = None  # the pass over the rows (``walk.Scan``), once finalized

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

    # -- free and derived wires ---------------------------------------------------

    def _defining_rows(self) -> tuple[array, array, array]:
        """The rows that define wires, in row order, as three columns:
        each one's row, its first wire w and the number n of wires it
        defines, or n = 0 for a row that inverts to define one wire; kept
        once the system is finalized, as rows can no longer change.  Row i
        *defines*
        private wire w (n = 1) when w is the last term of C_i, with
        coefficient 1, and above every wire of A_i, B_i and of all earlier
        rows, so that w = <A_i,z> * <B_i,z> - <C_i - w, z> follows from
        wires a walk in row order already knows.  It defines the n >= 2
        wires w ... w+n-1 when they are the last n terms of C_i, with
        coefficients 2^0 ... 2^(n-1), and w is above every wire of A_i,
        B_i and of all earlier rows: they are the binary digits of <A_i,z>
        * <B_i,z> less the rest of C_i, which is below 2^n if the row
        holds.  n stays below the modulus's bit length, so the digits are
        unique.  It *inverts* to define w (n = 0) when C_i is exactly the
        constant 1 and B_i exactly w with coefficient 1, w above every wire
        of A_i and of all earlier rows: w = <A_i,z>^-1, which no value is
        when <A_i,z> is 0.  C_i is held to the constant 1 because w is
        unique only where <C_i,z> cannot be 0.  Every private wire no row
        defines is *free*.

        Reads the rows only, never values, so every witness of one circuit
        splits the same way: the one pass over the rows (``_scan``) finds
        them."""
        return self._scan().defining

    def _scan(self) -> "Scan":
        """The pass over the rows (``walk.scan``): the defining rows, the
        certified blocks and the largest wire; kept once the system is
        finalized, as rows can no longer change."""
        if self._scanned is not None:
            return self._scanned
        from .walk import scan

        scanned = scan(self)
        if self._finalized:
            self._scanned = scanned
        return scanned

    @property
    def walked_rows(self) -> int:
        """The rows ``complete`` evaluates one by one: every row but those
        of the certified blocks."""
        return self.num_constraints - sum(b.end - b.row for b in self._scan().blocks)

    def free_wires(self) -> list[int]:
        """The private wires no row defines, in increasing order."""
        free = bytearray(b"\x01") * self._num_wires
        _, firsts, widths = self._defining_rows()
        for w, n in zip(firsts, map(max, widths, repeat(1))):
            free[w:w + n] = bytes(n)
        start = 1 + self.num_public
        return list(compress(range(start, self._num_wires), free[start:]))

    @property
    def num_free(self) -> int:
        """The number of free wires: the private wires less those the
        defining rows define."""
        return self.num_private - sum(map(max, self._defining_rows()[2], repeat(1)))

    def complete(self, given: Sequence[int]) -> list[int]:
        """The wire values of the one satisfying witness whose projection
        is ``given``: field elements, the constant, the statement, then
        the free wires in increasing order.  Raises Unsatisfied, naming
        the first row that fails, if there is none.  One walk over the
        rows (``walk.complete``): before each defining row, the free wires
        below its wires take the next values of ``given``, the rows since
        the last defining row must hold, and the row assigns its wires
        from r = <A_i,z> * <B_i,z> - <C_i - its wires, z> mod p, the sums
        taken with its wires at 0: one wire takes r, and n wires take the
        n binary digits of r, which fails the row if r >= 2^n; an
        inverting row's wire takes <A_i,z>^-1, which fails the row if
        <A_i,z> is 0.  Rows after the last defining row must hold once
        every free wire is placed.  Returns the list the walk filled, not
        a copy.

        The certified blocks (``walk``) are not evaluated row by row, and
        the walk is the same: every row of a block holds for exactly the
        values the walk gives its wires.  A boolean run's rows b * (1 - b)
        = 0 read only digits its sum row has just set to 0 or 1.  A round
        chain's rows each define their wire as the row-by-row walk would,
        from the same sums mod p, and the native round loop computes
        those values.  So no row of a block can fail, every other row is
        checked in row order as before, and ``complete`` returns the same
        list, which is what Groth16 proves, and names the same first
        failing row for every input."""
        from .walk import complete

        return complete(self, given)

    # -- canonical export ------------------------------------------------------

    def write_export(self, out: Optional[BinaryIO] = None) -> str:
        """Write the binary layout above to ``out`` section by section and
        return its SHA-256, the circuit fingerprint; with no ``out``, only
        hash it.  The same chunks go to the file and to the hash, and
        coefficient ids are renumbered to the sorted table a chunk at a
        time, so nothing holds a second copy of the rows."""
        digest = sha256()

        def put(chunk) -> None:
            digest.update(chunk)
            if out is not None:
                out.write(chunk)

        def put_u32s(values) -> None:
            # Renumbered or byte-swapped chunks are copies; an array that
            # is already little-endian goes out as it is.
            if isinstance(values, array) and not _BIG_ENDIAN:
                put(values)
                return
            values = iter(values)
            while chunk := array(_U32_CODE, islice(values, _CHUNK)):
                if _BIG_ENDIAN:
                    chunk.byteswap()
                put(chunk)

        p = self.modulus
        k = (p.bit_length() + 7) // 8
        table = self._coefficients()
        order = sorted(range(len(table)), key=table.__getitem__)
        put(MAGIC + _U32.pack(k) + p.to_bytes(k, "little")
            + _COUNTS.pack(self._num_wires, self.num_public, self.num_constraints, len(table)))
        put(b"".join(table[i].to_bytes(k, "little") for i in order))
        renumber = None
        if not _increasing(table):
            renumber = [0] * len(table)
            for new, old in enumerate(order):
                renumber[old] = new
        for m in self._matrices:
            put_u32s(m.counts)
            put_u32s(m.wires)
            put_u32s(m.coefficients if renumber is None
                     else map(renumber.__getitem__, m.coefficients))
        return digest.hexdigest()

    def export(self) -> bytes:
        """The binary layout above: the preimage of the circuit
        fingerprint, the file ``setup`` stores for verifiers (read back
        by ``read_export``) and the external proving backend's input."""
        out = io.BytesIO()
        self.write_export(out)
        return out.getvalue()

    def fingerprint(self) -> str:
        return self.write_export()

    @classmethod
    def from_export(cls, data: bytes) -> "ConstraintSystem":
        """``read_export`` of the bytes ``data``."""
        return cls.read_export(io.BytesIO(data), len(data))

    @classmethod
    def read_export(
        cls, source: BinaryIO, size: int, fingerprint: Optional[str] = None
    ) -> "ConstraintSystem":
        """Load the ``size`` bytes of ``export()`` output that ``source``
        holds into a finalized system.  Each array is read straight into
        place, and only once ``size`` shows that the rest of the input
        holds it, so a header cannot make the loader allocate more than
        the input holds; every byte read is hashed as it is read.  With a
        ``fingerprint``, input of another SHA-256 raises DigestMismatch,
        before any other check.  Strict: input that ``export()`` would
        not write raises ValueError, so ``from_export(x).export() == x``
        whenever it returns."""
        reader = _ExportReader(source, size)
        try:
            cs = reader.parse(cls)
        except ValueError:
            reader.check(fingerprint)
            raise
        reader.check(fingerprint)
        if reader.unread:
            raise ValueError("r1cs export has trailing bytes")
        cs._check_loaded()
        return cs

    def _check_loaded(self) -> None:
        """The checks of ``read_export`` that read the whole rows: the
        table increasing and in [1, modulus), each matrix's coefficient
        ids in range, every coefficient used, the wires increasing within
        each row and in range.  They share the pass ``complete`` walks by
        (``_scan``): in-row order is checked for the rows outside its
        certified blocks only, whose rows it compared with the gadgets'
        exactly, and the wire range by the largest wire it found, the
        last of some row once every row increases."""
        table = self._table
        if not _increasing(table):
            raise ValueError("r1cs coefficient table is not strictly increasing")
        if table and not (table[0] > 0 and table[-1] < self.modulus):
            raise ValueError("r1cs coefficient is zero or not below the modulus")
        used = set()
        for name, m in zip("ABC", self._matrices):
            ids = set(m.coefficients)
            if ids and max(ids) >= len(table):
                raise ValueError(f"matrix {name}: coefficient id out of range")
            used |= ids
        if len(used) != len(table):
            raise ValueError("r1cs coefficient table has unused entries")
        from .walk import checked_rows

        scanned = self._scan()
        for name, m in zip("ABC", checked_rows(self, scanned.blocks)):
            if not m.rows_increasing():
                raise ValueError(f"matrix {name}: wires repeated or out of order in a row")
        if scanned.top >= self._num_wires:
            for name, m in zip("ABC", self._matrices):
                if m.wires and max(m.wires) >= self._num_wires:
                    raise ValueError(f"matrix {name}: wire out of range")


class _ExportReader:
    """Reads an export's sections from a binary file of known size,
    hashing every byte it reads."""

    def __init__(self, source: BinaryIO, size: int):
        self.source = source
        self.unread = size
        self.digest = sha256()

    def _claim(self, n: int) -> None:
        if n > self.unread:
            raise ValueError("r1cs export is truncated")
        self.unread -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        data = self.source.read(n)
        if len(data) != n:
            raise ValueError("r1cs export is truncated")
        self.digest.update(data)
        return data

    def u32s(self, n: int) -> array:
        """The next ``n`` u32s, read into a new array."""
        self._claim(4 * n)
        values = array(_U32_CODE, (0,)) * n
        view = memoryview(values).cast("B")
        done = 0
        while done < len(view):
            got = self.source.readinto(view[done:])
            if not got:
                raise ValueError("r1cs export is truncated")
            done += got
        self.digest.update(view)
        view.release()
        if _BIG_ENDIAN:
            values.byteswap()
        return values

    def parse(self, cls) -> "ConstraintSystem":
        """The header, the table and the rows, checked only as far as
        reading them needs."""
        take = self.take
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
        matrices = []
        for _ in "ABC":
            counts = self.u32s(num_rows)
            terms = sum(counts)
            matrices.append(_Matrix(counts, self.u32s(terms), self.u32s(terms)))
        cs = cls(modulus)
        cs._num_wires = num_wires
        cs.num_public = num_public
        cs._coefficient_ids = dict(zip(table, count()))
        cs._table = table
        cs._matrices = tuple(matrices)
        cs.finalize()
        return cs

    def check(self, fingerprint: Optional[str]) -> None:
        """Hash the input's unread rest, a chunk at a time, and raise
        DigestMismatch unless the whole input's SHA-256 is ``fingerprint``
        (if given)."""
        if fingerprint is None:
            return
        rest = self.unread
        while rest:
            chunk = self.source.read(min(rest, 4 * _CHUNK))
            if not chunk:
                break
            self.digest.update(chunk)
            rest -= len(chunk)
        if rest or self.digest.hexdigest() != fingerprint:
            raise DigestMismatch("the export's SHA-256 is not its fingerprint")


def fingerprint_of(exported: bytes) -> str:
    """Circuit fingerprint: SHA-256 of the canonical export."""
    return sha256(exported).hexdigest()
