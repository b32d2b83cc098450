"""The walk over a system's rows: the pass that finds the defining rows
and certifies gadget blocks, and ``ConstraintSystem.complete``'s walk.

Only the systems that are walked import this module, through
``ConstraintSystem._scan``, ``complete`` and the strict load: a circuit
built and exported, as ``setup`` builds it, never compiles it.

Two kinds of block hold for exactly the values the walk gives their
wires, so the walk does not evaluate their rows one by one.  The pass
certifies each from the rows alone, for any width and round count, by
comparing whole array slices with the rows the gadget writes:

* a *boolean run*: a sum row defining n >= 2 digits w ... w+n-1, then
  exactly their n rows b * (1 - b) = 0 in digit order, as
  ``gadgets.bit_rows`` writes them.  The walk sets each digit to 0 or 1,
  which every row of the run holds for, so it skips the run.
* a *round chain*: R rounds of u * u = u2, u2 * u2 = u4 and u4 * u = t
  over consecutive new wires, as ``gadgets.mimc_permute`` writes them.
  Round 0's u is any combination of earlier wires; each later round's u
  is t + K + k_r: the round before's t, one key combination K of wires
  below the chain, the same in every round, and a constant k_r.  Each
  row defines its wire, so it holds for the value the walk gives it, and
  the walk computes all 3R wires in the native round loop
  (``mimc_rounds``), reading each k_r from the coefficient table.

A block is certified whole or not at all: rows that differ anywhere from
the gadget's, as a boolean row b * (2 - b) = 0, a round whose B constant
is not its A constant or a key that changes mid-chain, are walked row by
row.
"""

from __future__ import annotations

from array import array
from itertools import chain, count, islice, repeat
from operator import mul, sub
from typing import NamedTuple, Optional, Sequence

from .r1cs import _U32_CODE, Unsatisfied, _increasing, _Matrix


class CertifiedBlock(NamedTuple):
    """Rows ``row`` to ``end`` (exclusive) that the walk does not evaluate
    one by one: a round chain of ``rounds`` rounds from its first row, or,
    with ``rounds`` 0, a boolean run's boolean rows."""

    row: int
    end: int
    starts: tuple[int, int, int]  # the first term of ``row`` in A, B and C
    ends: tuple[int, int, int]  # the first term of ``end``
    index: int  # the number of defining rows before ``row``
    rounds: int


class Scan(NamedTuple):
    """The pass over a system's rows: ``ConstraintSystem._defining_rows``'
    three columns, the certified blocks in row order, and the largest wire
    that ends a row, or the last statement wire if larger."""

    defining: tuple[array, array, array]
    blocks: list[CertifiedBlock]
    top: int


def scan(cs) -> Scan:
    """One pass over ``cs``'s rows in order: the defining rows, by the rule
    of ``ConstraintSystem._defining_rows``, and the certified blocks.  A
    certified block's rows define exactly what the rule would find in
    them, so the pass records them whole and goes on after the block."""
    a, b, c = cs._matrices
    ac, aw, ai = a.counts, a.wires, a.coefficients
    bc, bw, bi = b.counts, b.wires, b.coefficients
    cc, cw, ci = c.counts, c.wires, c.coefficients
    # The ids of 2^0, 2^1, ...: a defining row's last coefficients, in
    # order, and the number of wires each id ends.
    ids = cs._coefficient_ids
    powers = [ids.get(1 << i, -1) for i in range(cs.modulus.bit_length() - 1)]
    widths = dict(zip(powers, count(1)))
    one = powers[0]
    certify = _Certifier(cs, one, ids.get(cs.modulus - 1, -1)) if one >= 0 else None
    top = cs.num_public  # the largest wire so far: only private ones are defined
    defining = tuple(array(_U32_CODE) for _ in range(3))
    add_row, add_wire, add_width = (column.append for column in defining)
    blocks = []
    rows, row = len(ac), 0
    oa = ob = oc = 0  # the row's first term in A, B and C
    while row < rows:
        ea, eb, ec = oa + ac[row], ob + bc[row], oc + cc[row]
        # Wire ids increase within a row, so its largest wire in each
        # matrix is its last term.
        if ea > oa and aw[ea - 1] > top:
            top = aw[ea - 1]
        if eb > ob and bw[eb - 1] > top:
            top = bw[eb - 1]
            # Only an inverting row has a new wire in B.
            if eb - ob == 1 == ec - oc and bi[ob] == one == ci[oc] and cw[oc] == 0:
                add_row(row), add_wire(top), add_width(0)
        if ec > oc and cw[ec - 1] > top:
            w = cw[ec - 1]
            n = widths.get(ci[ec - 1], 0)
            block = None
            if n == 1:
                if certify and ec - oc == 1:
                    block = certify.chain(row, w, (oa, ob, oc), (ea, eb, ec), len(defining[0]))
                if block:
                    size = block.end - row
                    defining[0].extend(range(row, block.end))
                    defining[1].extend(range(w, w + size))
                    defining[2].extend(repeat(1, size))
                    w += size - 1
                else:
                    add_row(row), add_wire(w), add_width(1)
            elif (
                1 < n <= ec - oc
                and cw[ec - n] == w - n + 1 > top
                and ci[ec - n:ec].tolist() == powers[:n]
            ):
                add_row(row), add_wire(w - n + 1), add_width(n)
                if certify:
                    block = certify.run(row + 1, w - n + 1, n, (ea, eb, ec), len(defining[0]))
            top = w
            if block:
                blocks.append(block)
                row = block.end
                oa, ob, oc = block.ends
                continue
        row += 1
        oa, ob, oc = ea, eb, ec
    return Scan(defining, blocks, top)


class _Certifier:
    """Compares the rows after a defining row with the rows ``bits`` and
    ``mimc_permute`` write, whole array slices at a time."""

    def __init__(self, cs, one: int, minus_one: int):
        self.arrays = [x for m in cs._matrices for x in (m.counts, m.wires, m.coefficients)]
        self.one, self.minus_one = one, minus_one
        self.num_wires = cs.num_wires
        self.rounds = 0  # the last chain's: the next one likely has as many
        self.quiet = 0  # no chain starts before this row: one was refused there
        self._runs: dict[int, tuple[array, ...]] = {}

    def run(self, row: int, w: int, n: int, starts, index: int) -> Optional[CertifiedBlock]:
        """The boolean run of the digits w ... w+n-1 in the n rows from
        ``row``, whose first terms are ``starts``, if those rows are
        b * (1 - b) = 0 for each digit in turn: A the digit, B the
        constant and the digit with coefficient -1, C empty."""
        if self.minus_one < 0:
            return None
        ac, aw, ai, bc, bw, bi, cc, _, _ = self.arrays
        shape = self._runs.get(n)
        if shape is None:
            u32 = lambda *values: array(_U32_CODE, values)
            shape = self._runs[n] = (
                u32(1) * n, u32(2) * n, u32(0) * n, u32(self.one) * n,
                u32(self.one, self.minus_one) * n,
            )
        ones, twos, zeros, one_ids, b_ids = shape
        oa, ob, oc = starts
        digits = array(_U32_CODE, range(w, w + n))
        end = row + n
        if (
            ac[row:end] == ones and bc[row:end] == twos and cc[row:end] == zeros
            and aw[oa:oa + n] == digits and ai[oa:oa + n] == one_ids
            and bw[ob:ob + 2 * n:2] == zeros and bw[ob + 1:ob + 2 * n:2] == digits
            and bi[ob:ob + 2 * n] == b_ids
        ):
            return CertifiedBlock(row, end, starts, (oa + n, ob + 2 * n, oc), index, 0)
        return None

    def chain(self, row: int, w: int, starts, ends, index: int) -> Optional[CertifiedBlock]:
        """The round chain whose round 0 starts at ``row``, u * u = w, whose
        first and last terms are ``starts`` and ``ends``: round 0's other
        rows w * w = w + 1 and (w + 1) * u = w + 2 follow, and then every
        later round (``_matches``) up to the first that does not continue
        the chain (``_continues``), or none if K is not a combination of
        wires below w."""
        if row < self.quiet:
            return None
        ac, aw, ai, bc, bw, bi, cc, cw, ci = self.arrays
        one = self.one
        (oa, ob, oc), (ea, eb, ec) = starts, ends
        n0 = ea - oa
        if not (
            ac[row + 1:row + 3].tolist() == [1, 1] == cc[row + 1:row + 3].tolist()
            and bc[row:row + 3].tolist() == [n0, 1, n0]
            and aw[ea:ea + 2].tolist() == [w, w + 1] and ai[ea:ea + 2].tolist() == [one, one]
        ):
            return None
        u_wires, u_ids = aw[oa:ea], ai[oa:ea]
        if not (
            bw[ob:eb] == u_wires and bi[ob:eb] == u_ids
            and bw[eb] == w and bi[eb] == one
            and bw[eb + 1:eb + 1 + n0] == u_wires and bi[eb + 1:eb + 1 + n0] == u_ids
            and cw[ec:ec + 2].tolist() == [w + 1, w + 2] and ci[ec:ec + 2].tolist() == [one, one]
        ):
            return None
        # Later round r (from 1) starts at row q + 3(r - 1); m is its u's
        # term count, constant and t included.
        q, qa, qb, qc = row + 3, ea + 2, eb + 1 + n0, ec + 2
        later, m = 0, 2
        if q < len(ac) and ac[q] >= 2 and aw[qa] == 0:
            m = ac[q]
            key_wires, key_ids = aw[qa + 1:qa + m - 1], ai[qa + 1:qa + m - 1]
            if _increasing(chain((0,), key_wires, (w,))):
                shape = (w, m, key_wires, key_ids, q, qa, qb, qc)
                later = self.rounds - 1
                if not (
                    later > 0
                    and self._continues(later, *shape) and not self._continues(later + 1, *shape)
                    and self._matches(later, *shape)
                ):
                    later = 0
                    while self._continues(later + 1, *shape):
                        later += 1
                    if not self._matches(later, *shape):
                        self.quiet = q + 3 * later
                        return None
                if later:
                    self.rounds = later + 1
        return CertifiedBlock(
            row, q + 3 * later, starts,
            (qa + (m + 2) * later, qb + (2 * m + 1) * later, qc + 3 * later),
            index, later + 1,
        )

    def _continues(self, r, w, m, key_wires, key_ids, q, qa, qb, qc) -> bool:
        """Whether the rows of later round r have a later round's term
        counts, read the round before's t as u's last term and define the
        wires after it."""
        q, qa, qc = q + 3 * (r - 1), qa + (m + 2) * (r - 1), qc + 3 * (r - 1)
        ac, aw, _, bc, _, _, cc, cw, _ = self.arrays
        return (
            ac[q:q + 3].tolist() == [m, 1, 1] and bc[q:q + 3].tolist() == [m, 1, m]
            and cc[q:q + 3].tolist() == [1, 1, 1]
            and aw[qa + m - 1] == w + 3 * r - 1 and cw[qc] == w + 3 * r
        )

    def _matches(self, later, w, m, key_wires, key_ids, q, qa, qb, qc) -> bool:
        """Whether the rows of later rounds 1 ... ``later`` are those
        ``mimc_permute`` writes after round 0's u * u = w: in round r, u =
        k_r + K + t with t = w + 3r - 1, then A and B of u * u = w + 3r,
        (w + 3r) * (w + 3r) = w + 3r + 1 and (w + 3r + 1) * u = w + 3r + 2,
        the same constant id k_r in all three places."""
        if not later:
            return True
        ac, aw, ai, bc, bw, bi, cc, cw, ci = self.arrays
        one = self.one
        sa, sb = m + 2, 2 * m + 1
        ta, tb, tc = qa + sa * later, qb + sb * later, qc + 3 * later
        if w + 3 * (later + 1) > self.num_wires or ta > len(aw) or tb > len(bw):
            return False
        u32 = lambda *values: array(_U32_CODE, values)
        if not (
            ac[q:q + 3 * later] == u32(m, 1, 1) * later
            and bc[q:q + 3 * later] == u32(m, 1, m) * later
            and cc[q:q + 3 * later] == u32(1) * (3 * later)
            and ci[qc:tc] == u32(one) * (3 * later)
            and cw[qc:tc] == array(_U32_CODE, range(w + 3, w + 3 + 3 * later))
        ):
            return False
        t = array(_U32_CODE, range(w + 2, w + 3 * later, 3))
        u2 = array(_U32_CODE, range(w + 3, w + 3 * later + 1, 3))
        u4 = array(_U32_CODE, range(w + 4, w + 3 * later + 2, 3))
        constants = ai[qa:ta:sa]
        a_wires = u32(0, *key_wires, 0, 0, 0) * later
        a_wires[m - 1::sa], a_wires[m::sa], a_wires[m + 1::sa] = t, u2, u4
        a_ids = u32(0, *key_ids, one, one, one) * later
        a_ids[::sa] = constants
        b_wires = u32(0, *key_wires, 0, 0, 0, *key_wires, 0) * later
        b_wires[m - 1::sb], b_wires[m::sb], b_wires[2 * m::sb] = t, u2, t
        b_ids = u32(0, *key_ids, one, one, 0, *key_ids, one) * later
        b_ids[::sb] = b_ids[m + 1::sb] = constants
        return (
            aw[qa:ta] == a_wires and ai[qa:ta] == a_ids
            and bw[qb:tb] == b_wires and bi[qb:tb] == b_ids
        )


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
    a = matrices[0]
    (rows, firsts, widths), blocks, _ = cs._scan()
    value, coefficient = z.__getitem__, cs._coefficients().__getitem__

    def place(w: int) -> None:
        # The free wires below w take the next given values.
        nonlocal placed
        need = w - len(z)
        if need:
            z.extend(given[placed:placed + need])
            placed += need
            if len(z) != w:
                raise Unsatisfied(None)

    def a_sum(lo: int, hi: int) -> int:
        # <A terms lo ... hi - 1, z>.
        return sum(map(mul, map(value, a.wires[lo:hi]), map(coefficient, a.coefficients[lo:hi])))

    def sums(m: _Matrix, lo: int, hi: int, start: int, end: int):
        # <m, z> of rows start ... end - 1, whose terms are lo ... hi - 1,
        # each read from z as it is when its sum is taken.
        terms = map(mul, map(value, m.wires[lo:hi]), map(coefficient, m.coefficients[lo:hi]))
        return map(sum, map(islice, repeat(terms), m.counts[start:end]))

    row, index, starts = 0, 0, (0, 0, 0)
    for block in (*blocks, None):
        if block is None:
            end, ends, stop = cs.num_constraints, tuple(len(m.wires) for m in matrices), len(rows)
        else:
            end, ends, stop = block.row, block.starts, block.index
        # The rows from ``row`` up to the block, walked one by one.
        a_sums, b_sums, c_sums = map(sums, matrices, starts, ends, repeat(row), repeat(end))
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
        if block is None:
            z.extend(given[placed:])
            if len(z) != cs.num_wires:
                raise Unsatisfied(None)
        elif block.rounds:
            place(matrices[2].wires[block.starts[2]])
        if end > checked:
            left = islice(residues, end - checked)
            if any(left):
                raise Unsatisfied(end - 1 - sum(1 for _ in left))
        if block is None:
            return z
        index = stop
        if block.rounds:
            # Round 0's u is its first row's A; each later round's
            # constant is the first term of its first row's A, K the rest
            # but t.
            oa, h = block.starts[0], block.row
            n0 = a.counts[h]
            u, key, constants = a_sum(oa, oa + n0), 0, ()
            if block.rounds > 1:
                qa, m = oa + n0 + 2, a.counts[h + 3]
                key = a_sum(qa + 1, qa + m - 1)
                constants = map(coefficient, a.coefficients[qa:block.ends[0]:m + 2])
            z += mimc_rounds(u % p, key, constants, p)
            index += 3 * block.rounds
        row, starts = block.end, block.ends


def checked_rows(cs, blocks: Sequence[CertifiedBlock]) -> list[_Matrix]:
    """Each matrix's rows outside the certified ``blocks``, a chain's
    first row included, as counts and wire ids: the rows whose in-row
    order the strict load checks.  A certified row was compared with the
    gadget's exactly, and those increase within every row."""
    out = []
    for j, m in enumerate(cs._matrices):
        counts, wires = array(_U32_CODE), array(_U32_CODE)
        row = term = 0
        for block in blocks:
            start, first = block.row, block.starts[j]
            if block.rounds:
                start, first = start + 1, first + m.counts[start]
            counts += m.counts[row:start]
            wires += m.wires[term:first]
            row, term = block.end, block.ends[j]
        counts += m.counts[row:]
        wires += m.wires[term:]
        out.append(_Matrix(counts, wires, None))
    return out
