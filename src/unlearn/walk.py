"""The walk over a system's rows: the pass over the plain rows that finds
their defining rows and places each record among them, and
``ConstraintSystem.complete``'s walk.

Only the systems that are walked import this module, through
``ConstraintSystem._scan``, ``complete`` and the strict load: a circuit
built and exported, as ``setup`` builds it, never compiles it.

The walk evaluates every plain row in order, and runs each record's
kernel in place of its rows (``r1cs``):

* a *run record* takes r = <a, z> mod p, fails at its sum row if r has
  more than n binary digits, and sets its digits to those of r.  Its
  boolean rows b * (1 - b) = 0 hold for every 0 and 1, so they are not
  evaluated.
* a *chain record* computes its 3R wires in the native round loop
  (``mimc_rounds``) from round 0's u, the key's wires and its round
  constants (``ConstraintSystem.chain_constants``): each of its rows
  defines its wire as exactly that value, so none can fail.

The pass also finds what the strict load refuses and the walk relies on:
a record whose first wire is not above every wire before it, or whose
terms do not all lie below its first wire, and a plain row that defines
n >= 2 digits, which only a run record may, since only its expansion
writes every digit's boolean row.  A row-by-row walk accepts boolean
rows anywhere after the sum row; the run record is stricter than the
witness's uniqueness needs, and every gadget writes them in order.
"""

from __future__ import annotations

from array import array
from itertools import chain, count, islice, repeat
from operator import mul, sub
from typing import NamedTuple, Optional, Sequence

from .r1cs import _U32_CODE, Record, Unsatisfied, _Matrix


class Placed(NamedTuple):
    """A record with where it lies among the plain rows."""

    record: Record
    starts: tuple[int, int, int]  # the first term in A, B and C of the plain row after it
    index: int  # the number of plain defining rows before it


class Scan(NamedTuple):
    """The pass over a system's plain rows: their defining rows as three
    columns, each one's row, its first wire and the number of wires it
    defines (0 for an inverting row); each record placed among them; the
    largest wire that ends a row or a record, or the last statement wire
    if larger; and the first fault the strict load refuses, or None."""

    defining: tuple[array, array, array]
    records: list[Placed]
    top: int
    fault: Optional[str]


def scan(cs) -> Scan:
    """One pass over ``cs``'s plain rows in order, each record met at its
    place: the defining rows, with their absolute row numbers.  Row i
    *defines* private wire w (n = 1) when w is the last term of C_i, with
    coefficient 1, and above every wire of A_i, B_i and of all earlier
    rows, so that w = <A_i,z> * <B_i,z> - <C_i - w, z> follows from wires
    a walk in row order already knows.  It defines the n >= 2 wires w ...
    w+n-1 when they are the last n terms of C_i, with coefficients 2^0 ...
    2^(n-1), and w is above every wire of A_i, B_i and of all earlier
    rows: they are the binary digits of <A_i,z> * <B_i,z> less the rest
    of C_i, which is below 2^n if the row holds.  n stays below the
    modulus's bit length, so the digits are unique.  It *inverts* to
    define w (n = 0) when C_i is exactly the constant 1 and B_i exactly w
    with coefficient 1, w above every wire of A_i and of all earlier
    rows: w = <A_i,z>^-1, which no value is when <A_i,z> is 0.  C_i is
    held to the constant 1 because w is unique only where <C_i,z> cannot
    be 0.  A run record's sum row defines its digits and each row of a
    chain record its wire; every private wire no row defines is *free*.
    The pass reads the rows only, never values, so every witness of one
    circuit splits the same way."""
    a, b, c = cs._matrices
    ac, aw = a.counts, a.wires
    bc, bw, bi = b.counts, b.wires, b.coefficients
    cc, cw, ci = c.counts, c.wires, c.coefficients
    # The ids of 2^0, 2^1, ...: a defining row's last coefficients, in
    # order, and the number of wires each id ends.
    ids = cs._coefficient_ids
    powers = [ids.get(1 << i, -1) for i in range(cs.modulus.bit_length() - 1)]
    widths = dict(zip(powers, count(1)))
    one = powers[0]
    top = cs.num_public  # the largest wire so far: only private ones are defined
    defining = tuple(array(_U32_CODE) for _ in range(3))
    add_row, add_wire, add_width = (column.append for column in defining)
    placed = []
    fault = None
    record_wires = cs._record_wires
    row = offset = 0  # the plain row, and the records' rows before it
    oa = ob = oc = 0  # the row's first term in A, B and C
    for record in (*cs.records(), None):
        stop = len(ac) if record is None else record.plain
        while row < stop:
            ea, eb, ec = oa + ac[row], ob + bc[row], oc + cc[row]
            # Wire ids increase within a row, so its largest wire in each
            # matrix is its last term.
            if ea > oa and aw[ea - 1] > top:
                top = aw[ea - 1]
            if eb > ob and bw[eb - 1] > top:
                top = bw[eb - 1]
                # Only an inverting row has a new wire in B.
                if eb - ob == 1 == ec - oc and bi[ob] == one == ci[oc] and cw[oc] == 0:
                    add_row(row + offset), add_wire(top), add_width(0)
            if ec > oc and cw[ec - 1] > top:
                w = cw[ec - 1]
                n = widths.get(ci[ec - 1], 0)
                if n == 1:
                    add_row(row + offset), add_wire(w), add_width(1)
                elif (
                    1 < n <= ec - oc
                    and cw[ec - n] == w - n + 1 > top
                    and ci[ec - n:ec].tolist() == powers[:n]
                ):
                    add_row(row + offset), add_wire(w - n + 1), add_width(n)
                    if fault is None:
                        fault = (f"row {row + offset} defines the digits from wire "
                                 f"{w - n + 1} outside a run record")
                top = w
            row += 1
            oa, ob, oc = ea, eb, ec
        if record is None:
            break
        w = record.first
        if fault is None and w <= top:
            fault = f"r1cs record at row {record.row}: wire {w} is not above every earlier wire"
        for lo, hi in ((record.terms, record.key), (record.key, record.end)):
            if fault is None and hi > lo and record_wires[hi - 1] >= w:
                fault = (f"r1cs record at row {record.row} reads wire {record_wires[hi - 1]}, "
                         f"not below its first wire {w}")
        placed.append(Placed(record, (oa, ob, oc), len(defining[0])))
        top = max(top, w + record.defined - 1)
        offset += record.rows
    return Scan(defining, placed, top, fault)


def mimc_rounds(u: int, key: int, constants, p: int) -> list[int]:
    """The wires u2, u4 and t of each round of ``hashing.mimc_permute``,
    from round 0's u, reduced: u2 = u^2, u4 = u2^2 and t = u4 * u, the
    next round's u being t + key + its constant.  One round per constant,
    and one more."""
    out = []
    for k in chain(constants, (0,)):
        u2 = u * u % p
        u4 = u2 * u2 % p
        t = u4 * u % p
        out += (u2, u4, t)
        u = (t + key + k) % p
    return out


def complete(cs, given: Sequence[int]) -> list[int]:
    """``ConstraintSystem.complete``: the walk its docstring states."""
    placed = 1 + cs.num_public
    z = list(given[:placed])
    if len(z) != placed or z[0] != 1:
        raise Unsatisfied(None)
    p = cs.modulus
    matrices = cs._matrices
    (rows, firsts, widths), records, _, _ = cs._scan()
    value, coefficient = z.__getitem__, cs._coefficients().__getitem__
    record_wires, record_ids = cs._record_wires, cs._record_ids

    def place(w: int) -> None:
        # The free wires below w take the next given values.
        nonlocal placed
        need = w - len(z)
        if need:
            z.extend(given[placed:placed + need])
            placed += need
            if len(z) != w:
                raise Unsatisfied(None)

    def combination(lo: int, hi: int) -> int:
        # <record terms lo ... hi - 1, z>.
        return sum(map(mul, map(value, record_wires[lo:hi]), map(coefficient, record_ids[lo:hi])))

    def sums(m: _Matrix, lo: int, hi: int, start: int, end: int):
        # <m, z> of plain rows start ... end - 1, whose terms are lo ... hi
        # - 1, each read from z as it is when its sum is taken.
        terms = map(mul, map(value, m.wires[lo:hi]), map(coefficient, m.coefficients[lo:hi]))
        return map(sum, map(islice, repeat(terms), m.counts[start:end]))

    row, plain, index, starts = 0, 0, 0, (0, 0, 0)
    for entry in (*records, None):
        if entry is None:
            end, stop, plain_end = cs.num_constraints, len(rows), len(matrices[0].counts)
            ends = tuple(len(m.wires) for m in matrices)
        else:
            record = entry.record
            end, stop, plain_end, ends = record.row, entry.index, record.plain, entry.starts
        # The plain rows from ``row`` up to the record, walked one by one.
        a_sums, b_sums, c_sums = map(sums, matrices, starts, ends, repeat(plain),
                                     repeat(plain_end))
        residues = map(p.__rmod__, map(sub, map(mul, a_sums, b_sums), c_sums))
        checked = row
        for r, w, n in zip(rows[index:stop], firsts[index:stop], widths[index:stop]):
            place(w)
            if r > checked:
                # These rows read only wires below w, all placed by now.
                # any() stops at the first that fails; the rows it left
                # give its index.
                left = islice(residues, r - checked)
                if any(left):
                    raise Unsatisfied(r - 1 - sum(1 for _ in left))
            if n:
                z += [0] * n
                value_r = (next(a_sums) * next(b_sums) - next(c_sums)) % p
                if n == 1:
                    z[w] = value_r
                elif value_r >> n:
                    raise Unsatisfied(r)
                else:
                    z[w:] = map(int, reversed(f"{value_r:0{n}b}"))
            else:
                z.append(0)
                value_r = next(a_sums) % p
                next(b_sums), next(c_sums)  # <B,z> reads w, still 0; C is 1
                if not value_r:
                    raise Unsatisfied(r)
                z[w] = pow(value_r, -1, p)
            checked = r + 1
        if entry is None:
            z.extend(given[placed:])
            if len(z) != cs.num_wires:
                raise Unsatisfied(None)
        else:
            place(record.first)
        if end > checked:
            left = islice(residues, end - checked)
            if any(left):
                raise Unsatisfied(end - 1 - sum(1 for _ in left))
        if entry is None:
            return z
        head = combination(record.terms, record.key) % p
        if record.rounds:
            key = combination(record.key, record.end)
            z += mimc_rounds(head, key, cs.chain_constants(record), p)
        elif head >> record.width:
            raise Unsatisfied(record.row)
        else:
            z += map(int, reversed(f"{head:0{record.width}b}"))
        row, plain, index, starts = record.row + record.rows, plain_end, stop, ends
