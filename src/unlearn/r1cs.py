"""Rank-1 constraint system builder and witness evaluation.

Constraints have the form <A,z> * <B,z> = <C,z> where z is the wire vector:
wire 0 is the constant 1, wires 1..num_public are the statement, and the
remainder are private.  A system holds its rows in two forms, both
sharing one table of the distinct nonzero coefficients:

* *records*, one per call of the two gadgets that write most of every
  circuit's rows.  A *run record* is a bit decomposition: the sum row's
  A combination a, the width n >= 2 and the first digit wire w, standing
  for the sum row a * 1 = sum 2^i b_i over the digits w ... w+n-1 and
  then b * (1 - b) = 0 for each digit in turn.  A *chain record* is one
  MiMC permutation: round 0's u combination, the key's wire terms K, the
  round count R and the first wire w, standing for 3R rows, per round u
  * u = u2, u2 * u2 = u4 and u4 * u = t over the next three wires, each
  later round's u being its constant k_r, K and the round before's t.
  k_r is the key's constant plus ``hashing.round_constants(R)[r]``; the
  record names the key's constant through k_1 (``Record.constant``).
* *plain rows*, every other row, in compressed sparse row form: per
  matrix A, B and C, the term count of each row, the wire ids (strictly
  increasing within a row) and coefficient ids.

``enforce`` writes one plain row from three sparse dicts {wire: coeff}:
it sorts each, reduces the coefficients, drops zeros and checks that
every wire is allocated.  ``run`` and ``chain`` append one record each,
allocating its wires as one range, and check its terms as a whole.

``expand`` writes every row in order, the records' rows as the gadgets
wrote them row by row, in the *row export*: the flat layout below, which
is the external proving backend's input, and whose SHA-256 is the *row
fingerprint*.  ``export`` writes the *stored file*: the table, the
records and the plain rows, each record with its place in the row order.
Its SHA-256 is the circuit fingerprint, which ``params.json`` and every
proof name.  ``read_export`` loads a stored file strictly: a file
``export`` would not write is refused.

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

Every row of a record defines its wires or holds for them: a run's sum
row defines its digits and its boolean rows hold for any 0 or 1, and
each row of a chain defines its wire.  The walk (``walk``) runs each
record's kernel instead of its rows, and evaluates every plain row in
order.  Digits come only from run records: the strict load refuses plain
rows that define n >= 2 digits, so every digit has the boolean row its
record's expansion writes, and the relation has the one witness
``complete`` returns for each projection.  What binds the free wires to
the statement is the hash: MiMC's collision resistance and the
injective packing of each point into limbs.
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
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from operator import ge, lt
from typing import TYPE_CHECKING, BinaryIO, NamedTuple, Optional, Sequence

from .hashing import round_constants, sha256

if TYPE_CHECKING:
    from .walk import Scan

LinComb = dict[int, int]
# A combination's terms as ``run`` and ``chain`` take them: the wires,
# strictly increasing, and their coefficients, each in [1, modulus).
Terms = tuple[Sequence[int], Sequence[int]]

# Both layouts, every integer little-endian, start with a magic line, k
# (u32) and the modulus in k bytes, k minimal.
#
# expand(), the row export, then holds:
#   wires, public, rows, coefficients (u32 each)
#   the coefficient table: that many k-byte values, strictly increasing,
#     each in [1, modulus) and each used by some term
#   for A, B and C in turn: term counts (rows x u32), then wire ids and
#     coefficient ids (one u32 per term each)
#
# export(), the stored file, then holds:
#   wires, public, rows (all of them), coefficients, records (u32 each)
#   the coefficient table, as above: the row export's
#   the records in row order, _FIELDS u32s each: its first row, the
#     round count (0 for a run), the width (0 for a chain), the first
#     wire, the number of terms of a run's A or a chain's round-0 u, the
#     number of the key's terms, and 1 + the id of round 1's constant
#     (0 for a run, a one-round chain or a round 1 without one)
#   the records' terms, record after record, each one's A or u terms
#     then its key's: all their wire ids, then all their coefficient ids
#   the plain rows, laid out as the row export's rows
ROWS_MAGIC = b"unlearn-r1cs v2\n"
MAGIC = b"unlearn-r1cs v3\n"
_U32 = struct.Struct("<I")
_FILE_COUNTS = struct.Struct("<5I")
_FIELDS = 7
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
    term_count: int  # nonzero entries of A, B and C together, records' rows included


class Record(NamedTuple):
    """One record, as ``ConstraintSystem.records`` lists them."""

    row: int  # its first row
    rounds: int  # a chain's round count, or 0 for a run
    width: int  # a run's digit count, or 0 for a chain
    first: int  # its first wire
    terms: int  # where its A (a run) or round-0 u (a chain) starts in the record terms
    key: int  # where its key's terms start: the end of A or u
    end: int  # the end of its terms
    constant: int  # 1 + the id of round 1's constant k_1, or 0 if it has none
    plain: int  # the plain rows before it

    @property
    def rows(self) -> int:
        return 3 * self.rounds if self.rounds else self.width + 1

    @property
    def defined(self) -> int:
        """The wires it defines: its digits, or three per round."""
        return 3 * self.rounds if self.rounds else self.width


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


def _u32s() -> array:
    return array(_U32_CODE)


class _Rows(SequenceABC):
    """Read-only view of a system's rows, records expanded: row i is its
    (A, B, C) linear combinations as dicts, as ``enforce`` stores them."""

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
        # The records: _FIELDS u32s each (the stored layout's, ids in this
        # system's numbering), then their terms' wires and coefficient ids.
        self._records = _u32s()
        self._record_wires, self._record_ids = _u32s(), _u32s()
        self._record_rows = 0
        self._finalized = False
        self._scanned = None  # the pass over the rows (``walk.Scan``), once finalized
        self._listed: Optional[list[Record]] = None
        self._expanded: Optional[tuple[int, tuple[_Matrix, ...]]] = None
        # A chain's (constant field, rounds) -> its round constants; and,
        # while building, (key constant, rounds) -> that constant field.
        self._constants: dict[tuple[int, int], tuple[int, ...]] = {}
        self._keys: dict[tuple[int, int], int] = {}
        self._widest = 0  # the widest run so far: the powers of 2 below it are in the table

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

    def _fresh(self, *terms: Terms) -> list[int]:
        """Check the terms of a record before it stores anything, as
        ``enforce`` checks a row: BuildPhaseClosed once finalized, and
        ValueError for wires and coefficients of different lengths, wires
        not strictly increasing, an unallocated wire, or a coefficient
        new to the table outside [1, modulus).  Returns the new
        coefficients."""
        if self._finalized:
            raise BuildPhaseClosed("constraint system is finalized")
        fresh: dict[int, None] = {}
        ids = self._coefficient_ids
        for wires, coefficients in terms:
            if len(wires) != len(coefficients):
                raise ValueError("record terms: wires and coefficients do not match")
            if not _increasing(wires):
                raise ValueError("record terms: wires repeated or out of order")
            if wires and not (wires[0] >= 0 and wires[-1] < self._num_wires):
                raise ValueError(f"unallocated wire {wires[0] if wires[0] < 0 else wires[-1]}")
            fresh.update(dict.fromkeys(v for v in coefficients if v not in ids))
        if fresh and not (min(fresh) > 0 and max(fresh) < self.modulus):
            raise ValueError("record coefficient is zero or not reduced")
        return list(fresh)

    def _register(self, coefficients) -> None:
        ids = self._coefficient_ids
        for v in coefficients:
            ids.setdefault(v, len(ids))

    def _append(self, rounds: int, width: int, terms: Terms, key_terms: int,
                constant: int = 0) -> int:
        """Store a checked record whose coefficients are in the table, with
        its ``constant`` field, and allocate its wires; returns the
        first."""
        ids = self._coefficient_ids
        first = self._num_wires
        wires, values = terms
        self._records.extend((
            self.num_constraints, rounds, width, first, len(wires) - key_terms, key_terms, constant,
        ))
        self._record_wires.extend(wires)
        self._record_ids.extend(map(ids.__getitem__, values))
        self._num_wires += 3 * rounds if rounds else width
        self._record_rows += 3 * rounds if rounds else width + 1
        return first

    def run(self, a: Terms, width: int) -> int:
        """Append a run record: the rows ``gadgets.CircuitBuilder.bits``
        writes for a and ``width`` new digit wires, which it allocates.
        ``a`` holds the sum row's A terms, sorted and reduced.  Returns
        the first digit."""
        fresh = self._fresh(a)
        if not 2 <= width < self.modulus.bit_length():
            raise ValueError(f"a run of {width} digits")
        self._register(fresh)
        # 1, -1 and the powers of 2 below the widest run so far are in the
        # table already.
        if width > self._widest:
            self._register([1, self.modulus - 1, *(1 << i for i in range(self._widest, width))])
            self._widest = width
        return self._append(0, width, a, 0)

    def chain(self, u: Terms, key: Terms, key_constant: int, rounds: int) -> int:
        """Append a chain record: the rows ``gadgets.CircuitBuilder.
        mimc_permute`` writes for ``rounds`` rounds from round 0's u,
        under the key whose wire terms are ``key`` (none of them the
        constant wire 0) and whose constant is ``key_constant``.
        Allocates its 3 * rounds wires; returns the first."""
        fresh = self._fresh(u, key)
        if rounds < 1:
            raise ValueError(f"a chain of {rounds} rounds")
        if key[0] and key[0][0] == 0:
            raise ValueError("record terms: a key term on the constant wire")
        self._register(fresh)
        p = self.modulus
        known = (key_constant % p, rounds)
        constant = self._keys.get(known)
        if constant is None:
            # The first chain under this key constant: its round constants
            # enter the table, and chain_constants keeps them.
            constants = tuple((key_constant + c) % p for c in round_constants(rounds)[1:])
            self._register([1, *filter(None, constants)])
            constant = 1 + self._coefficient_ids[constants[0]] if constants and constants[0] else 0
            self._keys[known] = constant
            self._constants[constant, rounds] = constants
        terms = ([*u[0], *key[0]], [*u[1], *key[1]])
        return self._append(rounds, 0, terms, len(key[0]), constant)

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
        return len(self._matrices[0].counts) + self._record_rows

    @property
    def constraints(self) -> _Rows:
        """Every row, records expanded (``expand``)."""
        return _Rows(self)

    def _coefficients(self) -> list[int]:
        if len(self._table) != len(self._coefficient_ids):
            self._table = list(self._coefficient_ids)
        return self._table

    def records(self) -> list[Record]:
        """The records in row order, each with where its terms lie and the
        number of plain rows before it; kept once finalized."""
        if self._listed is not None and len(self._listed) * _FIELDS == len(self._records):
            return self._listed
        f = self._records
        out, terms, before = [], 0, 0
        for row, rounds, width, first, n, k, constant in zip(*(f[i::_FIELDS] for i in range(_FIELDS))):
            record = Record(row, rounds, width, first, terms, terms + n, terms + n + k, constant,
                            row - before)
            out.append(record)
            terms = record.end
            before += record.rows
        if self._finalized:
            self._listed = out
        return out

    def chain_constants(self, record: Record) -> tuple[int, ...]:
        """A chain's round constants k_1 ... k_(R-1): the key's constant
        plus each round constant, the key's constant being k_1 less the
        first."""
        key = (record.constant, record.rounds)
        out = self._constants.get(key)
        if out is None:
            p = self.modulus
            c = round_constants(record.rounds)
            if record.rounds == 1:
                out = ()
            else:
                k1 = self._coefficients()[record.constant - 1] if record.constant else 0
                out = tuple((k1 - c[1] + v) % p for v in c[1:])
            self._constants[key] = out
        return out

    def _rows_of(self, record: Record) -> tuple[tuple[list[int], list[int], list[int]], ...]:
        """A record's rows, for A, B and C each as term counts, wire ids
        and coefficient ids: the rows its gadget wrote row by row."""
        ids = self._coefficient_ids
        one = ids[1]
        w = record.first
        wires, coefficient_ids = self._record_wires, self._record_ids
        if not record.rounds:
            n = record.width
            a_wires, a_ids = wires[record.terms:record.key], coefficient_ids[record.terms:record.key]
            digits = range(w, w + n)
            b_wires = [0] * (2 * n + 1)
            b_wires[2::2] = digits
            return (
                ([len(a_wires), *repeat(1, n)], [*a_wires, *digits], [*a_ids, *repeat(one, n)]),
                ([1, *repeat(2, n)], b_wires, [one, *(one, ids[self.modulus - 1]) * n]),
                ([n, *repeat(0, n)], list(digits), [ids[1 << i] for i in range(n)]),
            )
        a, b, c = ([], [], []), ([], [], []), ([], [], [])
        u = list(wires[record.terms:record.key])
        u_ids = list(coefficient_ids[record.terms:record.key])
        key = list(wires[record.key:record.end])
        key_ids = list(coefficient_ids[record.key:record.end])
        for r, k in enumerate((None, *self.chain_constants(record))):
            if r:
                t = w - 1
                u, u_ids = [*key, t], [*key_ids, one]
                if k:
                    u, u_ids = [0, *u], [ids[k], *u_ids]
            n = len(u)
            a[0].extend((n, 1, 1))
            a[1].extend((*u, w, w + 1))
            a[2].extend((*u_ids, one, one))
            b[0].extend((n, 1, n))
            b[1].extend((*u, w, *u))
            b[2].extend((*u_ids, one, *u_ids))
            c[0].extend((1, 1, 1))
            c[1].extend((w, w + 1, w + 2))
            c[2].extend((one, one, one))
            w += 3
        return a, b, c

    def _rows(self) -> tuple[_Matrix, ...]:
        """Every row in order, records expanded, as three matrices."""
        records = self.records()
        if not records:
            return self._matrices
        out = tuple(_Matrix(_u32s(), _u32s(), _u32s()) for _ in range(3))
        row, terms = 0, [0, 0, 0]
        for record in (*records, None):
            end = len(self._matrices[0].counts) if record is None else record.plain
            for j, (m, e) in enumerate(zip(self._matrices, out)):
                lo = terms[j]
                hi = lo + sum(m.counts[row:end])
                e.counts += m.counts[row:end]
                e.wires += m.wires[lo:hi]
                e.coefficients += m.coefficients[lo:hi]
                terms[j] = hi
            row = end
            if record is not None:
                for e, block in zip(out, self._rows_of(record)):
                    e.counts.extend(block[0])
                    e.wires.extend(block[1])
                    e.coefficients.extend(block[2])
        return out

    def _row(self, i: int) -> tuple[LinComb, LinComb, LinComb]:
        """Constraint i as its three linear combinations, read from the
        expansion, which is kept until a row is added."""
        if self._expanded is None or self._expanded[0] != self.num_constraints:
            self._expanded = (self.num_constraints, self._rows())
        table = self._coefficients()
        out = []
        for m in self._expanded[1]:
            lo, hi = m.span(i)
            out.append(dict(zip(m.wires[lo:hi], map(table.__getitem__, m.coefficients[lo:hi]))))
        return tuple(out)

    def stats(self) -> CircuitStats:
        terms = sum(len(m.wires) for m in self._matrices)
        for record in self.records():
            n = record.key - record.terms
            if not record.rounds:
                # The sum row's A, its B and its n digits in C; each boolean
                # row's one term in A and two in B.
                terms += n + 1 + 4 * record.width
                continue
            # Round 0: A u, w and w + 1, B u, w and u, C one wire per row;
            # a later round's u is the key, t and its constant if nonzero.
            later = (record.rounds - 1) * (record.end - record.key + 1)
            later += sum(map(bool, self.chain_constants(record)))
            terms += 3 * n + 6 + 3 * later + 6 * (record.rounds - 1)
        return CircuitStats(self.num_constraints, self.num_public, self.num_private, terms)

    # -- free and derived wires ---------------------------------------------------

    def _scan(self) -> "Scan":
        """The pass over the plain rows (``walk.scan``): their defining
        rows, each record with where it lies among them, the largest wire
        and the first fault the strict load refuses; kept once the system
        is finalized, as rows can no longer change."""
        if self._scanned is not None:
            return self._scanned
        from .walk import scan

        scanned = scan(self)
        if self._finalized:
            self._scanned = scanned
        return scanned

    @property
    def walked_rows(self) -> int:
        """The rows ``complete`` evaluates one by one: every row but a run
        record's boolean rows and a chain record's rows."""
        return self.num_constraints - sum(
            r.rows if r.rounds else r.width for r in self.records()
        )

    def free_wires(self) -> list[int]:
        """The private wires no row defines, in increasing order: those the
        plain rows' defining rows define, and each record's range, are
        not."""
        free = bytearray(b"\x01") * self._num_wires
        _, firsts, widths = self._scan().defining
        for w, n in chain(zip(firsts, map(max, widths, repeat(1))),
                          ((r.first, r.defined) for r in self.records())):
            free[w:w + n] = bytes(n)
        start = 1 + self.num_public
        return list(compress(range(start, self._num_wires), free[start:]))

    @property
    def num_free(self) -> int:
        """The number of free wires: the private wires less those the
        defining rows define."""
        defined = sum(map(max, self._scan().defining[2], repeat(1)))
        return self.num_private - defined - sum(r.defined for r in self.records())

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

        A record's rows are not evaluated one by one, and the walk is the
        same: a run's sum row sets its digits to 0 or 1, which its boolean
        rows hold for, and the native round loop computes the values a
        chain's rows define, from the same sums mod p.  So no other row of
        a record can fail, every plain row is checked in row order, and
        ``complete`` returns the list the rows give, which is what Groth16
        proves, and names the first failing row, for every input."""
        from .walk import complete

        return complete(self, given)

    # -- the stored file and the row export ---------------------------------------

    def _write(self, out: Optional[BinaryIO], magic: bytes, counts: Sequence[int], body) -> str:
        """Write the magic line, k, the modulus, the u32 ``counts``, the
        sorted coefficient table and what ``body(put_u32s, renumber)``
        puts, to ``out`` if given; returns their SHA-256.  The same chunks
        go to the file and to the hash, and coefficient ids are renumbered
        to the sorted table a chunk at a time, so nothing holds a second
        copy of the rows."""
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
        put(magic + _U32.pack(k) + p.to_bytes(k, "little")
            + struct.pack(f"<{len(counts)}I", *counts))
        put(b"".join(table[i].to_bytes(k, "little") for i in order))
        renumber = None
        if not _increasing(table):
            renumber = [0] * len(table)
            for new, old in enumerate(order):
                renumber[old] = new
        body(put_u32s, renumber)
        return digest.hexdigest()

    @staticmethod
    def _put_rows(put_u32s, renumber, matrices) -> None:
        for m in matrices:
            put_u32s(m.counts)
            put_u32s(m.wires)
            put_u32s(m.coefficients if renumber is None
                     else map(renumber.__getitem__, m.coefficients))

    def expand(self, out: Optional[BinaryIO] = None) -> str:
        """Write the row export (the layout above) to ``out`` and return
        its SHA-256, the row fingerprint; with no ``out``, only hash it.
        Every row in order, records expanded: the rows the gadgets write
        row by row, and the external proving backend's input."""
        rows = self._rows()
        counts = (self._num_wires, self.num_public, self.num_constraints, len(self._coefficients()))
        return self._write(out, ROWS_MAGIC, counts,
                           lambda put_u32s, renumber: self._put_rows(put_u32s, renumber, rows))

    def write_export(self, out: Optional[BinaryIO] = None) -> str:
        """Write the stored file (the layout above) to ``out`` section by
        section and return its SHA-256, the circuit fingerprint; with no
        ``out``, only hash it."""

        def body(put_u32s, renumber) -> None:
            fields, ids = self._records, self._record_ids
            if renumber is not None:
                fields = array(_U32_CODE, fields)
                constants = fields[_FIELDS - 1::_FIELDS]
                fields[_FIELDS - 1::_FIELDS] = array(
                    _U32_CODE, (c and 1 + renumber[c - 1] for c in constants))
                ids = map(renumber.__getitem__, ids)
            put_u32s(fields)
            put_u32s(self._record_wires)
            put_u32s(ids)
            self._put_rows(put_u32s, renumber, self._matrices)

        counts = (self._num_wires, self.num_public, self.num_constraints,
                  len(self._coefficients()), len(self._records) // _FIELDS)
        return self._write(out, MAGIC, counts, body)

    def export(self) -> bytes:
        """The stored file: the preimage of the circuit fingerprint, which
        ``setup`` stores for verifiers (read back by ``read_export``)."""
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
        """Load the ``size`` bytes of a stored file that ``source`` holds
        into a finalized system.  Each array is read straight into place,
        and only once ``size`` shows that the rest of the input holds it,
        so a header cannot make the loader allocate more than the input
        holds; every byte read is hashed as it is read.  With a
        ``fingerprint``, input of another SHA-256 raises DigestMismatch,
        before any other check.  Strict: input that ``export()`` would not
        write raises ValueError, so ``from_export(x).export() == x``
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
        """The checks of ``read_export`` that read the whole system: the
        table increasing and in [1, modulus); each record's fields, in row
        order; the coefficient ids in range and every table entry used by
        some row; the wires increasing within each plain row and each
        record's terms; and the pass ``complete`` walks by (``_scan``):
        each record's wires new and its terms below them, no plain row
        defining digits, and every wire in range."""
        table, p = self._table, self.modulus
        if not _increasing(table):
            raise ValueError("r1cs coefficient table is not strictly increasing")
        if table and not (table[0] > 0 and table[-1] < p):
            raise ValueError("r1cs coefficient is zero or not below the modulus")
        ids = self._coefficient_ids
        used = bytearray(len(table))
        records = self.records()
        end = 0
        constants = set()  # the (k_1, rounds) of the chains checked so far
        for r in records:
            if r.row < end:
                raise ValueError(f"r1cs record at row {r.row} overlaps the one before")
            end = r.row + r.rows
            if not r.rounds:
                if not 2 <= r.width < p.bit_length() or r.key < r.end or r.constant:
                    raise ValueError(f"r1cs run record at row {r.row} is malformed")
                continue
            if r.width or r.constant > len(table) or r.rounds == 1 and r.constant:
                raise ValueError(f"r1cs chain record at row {r.row} is malformed")
            # Its round constants k_1 ... k_(R-1) are distinct, as the round
            # constants are, and each but a zero one is in the table: so
            # the table bounds R, and the work of expanding the record.
            if r.rounds > len(table) + 2:
                raise ValueError(f"r1cs chain record at row {r.row} has more rounds than "
                                 "the table has constants")
            if r.key < r.end and self._record_wires[r.key] == 0:
                raise ValueError(f"r1cs chain record at row {r.row}: a key term on wire 0")
            if (r.constant, r.rounds) in constants:
                continue
            constants.add((r.constant, r.rounds))
            for k in filter(None, self.chain_constants(r)):
                if k not in ids:
                    raise ValueError(f"r1cs chain record at row {r.row}: "
                                     "a round constant is not in the table")
                used[ids[k]] = 1
        if end > self.num_constraints:
            raise ValueError("r1cs records reach past the last row")
        widths = [r.width for r in records if not r.rounds]
        fixed = ([1] if records else []) + ([p - 1, *(1 << i for i in range(max(widths)))]
                                            if widths else [])
        for v in fixed:
            if v not in ids:
                raise ValueError("r1cs coefficient table lacks a coefficient of a record's rows")
            used[ids[v]] = 1
        for name, values in (
            *((f"matrix {name}", m.coefficients) for name, m in zip("ABC", self._matrices)),
            ("records", self._record_ids),
        ):
            if values and max(values) >= len(table):
                raise ValueError(f"{name}: coefficient id out of range")
            deque(map(used.__setitem__, values, repeat(1)), maxlen=0)
        if not all(used):
            raise ValueError("r1cs coefficient table has unused entries")
        for name, m in zip("ABC", self._matrices):
            if not m.rows_increasing():
                raise ValueError(f"matrix {name}: wires repeated or out of order in a row")
        # Each record's A or u terms, then its key's, as the rows of one matrix.
        lists = array(_U32_CODE, chain.from_iterable((r.key - r.terms, r.end - r.key) for r in records))
        if not _Matrix(lists, self._record_wires, None).rows_increasing():
            raise ValueError("records: wires repeated or out of order in a combination")
        scanned = self._scan()
        if scanned.fault:
            raise ValueError(scanned.fault)
        if scanned.top >= self._num_wires:
            for name, m in zip("ABC", self._matrices):
                if m.wires and max(m.wires) >= self._num_wires:
                    raise ValueError(f"matrix {name}: wire out of range")
            raise ValueError("records: wire out of range")


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
        """The header, the table, the records and the plain rows, checked
        only as far as reading them needs."""
        take = self.take
        if take(len(MAGIC)) != MAGIC:
            raise ValueError("not an unlearn-r1cs v3 file")
        (k,) = _U32.unpack(take(_U32.size))
        modulus = int.from_bytes(take(k), "little")
        if modulus < 2 or k != (modulus.bit_length() + 7) // 8:
            raise ValueError("r1cs export modulus is not canonical")
        num_wires, num_public, num_rows, num_coefficients, num_records = _FILE_COUNTS.unpack(
            take(_FILE_COUNTS.size))
        if num_public >= num_wires:
            raise ValueError(f"{num_public} public wires out of {num_wires}")
        raw = take(num_coefficients * k)
        table = [int.from_bytes(raw[i:i + k], "little") for i in range(0, len(raw), k)]
        fields = self.u32s(_FIELDS * num_records)
        rounds, widths = fields[1::_FIELDS], fields[2::_FIELDS]
        terms = sum(fields[4::_FIELDS]) + sum(fields[5::_FIELDS])
        record_wires = self.u32s(terms)
        record_ids = self.u32s(terms)
        plain = num_rows - 3 * sum(rounds) - sum(widths) - rounds.count(0)
        if plain < 0:
            raise ValueError("r1cs records hold more rows than the file")
        matrices = []
        for _ in "ABC":
            counts = self.u32s(plain)
            n = sum(counts)
            matrices.append(_Matrix(counts, self.u32s(n), self.u32s(n)))
        cs = cls(modulus)
        cs._num_wires = num_wires
        cs.num_public = num_public
        cs._coefficient_ids = dict(zip(table, count()))
        cs._table = table
        cs._matrices = tuple(matrices)
        cs._records, cs._record_wires, cs._record_ids = fields, record_wires, record_ids
        cs._record_rows = num_rows - plain
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
    """Circuit fingerprint: SHA-256 of the stored file."""
    return sha256(exported).hexdigest()
