"""Gadget library for building the statement circuits.

Values inside a circuit are sparse linear combinations over wires, so
additions and constant scaling are free; only multiplications allocate
wires and constraints.  Every product gadget returns one new wire that
its own row defines (``r1cs``): C is that wire less any terms added to
the product.  No row then copies the combination that fed an earlier
one, so no row grows with capacity or epochs.  Gadgets write rows only:
they compute no wire values, and the rows derive every wire a gadget
allocates from its inputs (``ConstraintSystem.complete``).  The hash
gadgets' rows encode the exact computation of ``hashing``.  The
fixed-point multiply's rows encode ``field.fx_mul``, with one bit
decomposition of the rounded, offset product, which is also its range
check against the value bound of ``field``: where native training raises
FixedPointOverflow, no witness satisfies them.  ``pin_absent`` fixes
each value of an absent slot to a constant, so a padded circuit leaves
no wire free of its inputs.

Most rows of every circuit are range-check booleans and MiMC rounds.
``bits`` and ``mimc_permute`` write each call as one record
(``ConstraintSystem.run`` and ``chain``), which stores the call's
combinations, width or round count and first wire, not its rows; every
other row goes through ``ConstraintSystem.enforce``.  A record's
expansion (``ConstraintSystem.expand``) is the rows both gadgets would
write row by row through ``enforce``: that is the reference the tests
hold them to.  The walk that completes a witness (``walk``) runs each
record's kernel in place of its rows.
"""

from __future__ import annotations

from functools import reduce

from .field import ScaleConfig
from .hashing import TAG_MODEL, TAG_NODE, TAG_POINT, UID_BITS, HashConfig, empty_root
from .hashing import point_layout, round_constants
from .r1cs import ConstraintSystem, LinComb


def lc_const(v: int) -> LinComb:
    return {0: v} if v else {}


def lc_wire(w: int) -> LinComb:
    return {w: 1}


def _terms(lc: LinComb, p: int) -> tuple[list[int], list[int]]:
    """A linear combination's wires, increasing, and their coefficients
    mod p, zeros dropped: the terms ``enforce`` would store for it."""
    terms = sorted((w, v % p) for w, v in lc.items() if v % p)
    return [w for w, _ in terms], [v for _, v in terms]


class CircuitBuilder:
    def __init__(self, cs: ConstraintSystem, scale: ScaleConfig, hash_cfg: HashConfig):
        self.cs = cs
        self.scale = scale
        self.hash_cfg = hash_cfg

    # -- linear-combination arithmetic (free) --------------------------------

    def add(self, a: LinComb, b: LinComb) -> LinComb:
        p = self.cs.modulus
        out = dict(a)
        for w, c in b.items():
            v = (out.get(w, 0) + c) % p
            if v:
                out[w] = v
            else:
                out.pop(w, None)
        return out

    def sub(self, a: LinComb, b: LinComb) -> LinComb:
        return self.add(a, self.scaled(b, -1))

    def scaled(self, a: LinComb, k: int) -> LinComb:
        p = self.cs.modulus
        k %= p
        return {w: c * k % p for w, c in a.items()} if k else {}

    # -- core wire allocation -------------------------------------------------

    def mul(self, a: LinComb, b: LinComb, plus: LinComb = {}) -> LinComb:
        """a * b + plus as a new wire, defined by its row a * b = w - plus."""
        w = self.cs.alloc_private()
        self.cs.enforce(a, b, self.sub(lc_wire(w), plus) if plus else lc_wire(w))
        return lc_wire(w)

    def enforce_eq(self, a: LinComb, b: LinComb) -> None:
        self.cs.enforce(self.sub(a, b), lc_const(1), {})

    def enforce_boolean(self, a: LinComb) -> None:
        self.cs.enforce(a, self.sub(lc_const(1), a), {})

    def bits(self, a: LinComb, width: int) -> list[int]:
        """Bit-decompose a into ``width`` boolean wires.  The sum row a * 1
        = sum 2^i b_i comes first, with the bits new in its C, so it
        defines them as a's binary digits (``r1cs``), and no witness
        satisfies it when a does not fit in ``width`` bits; the boolean
        rows b * (1 - b) = 0 follow.  All width + 1 rows are one run
        record."""
        first = self.cs.run(_terms(a, self.cs.modulus), width)
        return list(range(first, first + width))

    def value_range(self, a: LinComb) -> LinComb:
        """Enforce a in [-2^B, 2^B), B = scale.value_bits: the interval
        native training accepts for features and labels: outside it, where
        native training raises FixedPointOverflow, no witness satisfies
        the decomposition's sum row.  Returns the range-checked a + 2^B."""
        offset = self.add(a, lc_const(1 << self.scale.value_bits))
        self.bits(offset, self.scale.value_bits + 1)
        return offset

    def select(self, sel: LinComb, a: LinComb, b: LinComb) -> LinComb:
        """sel * a + (1 - sel) * b for boolean sel: one wire, from the row
        sel * (a - b) = out - b."""
        return self.mul(sel, self.sub(a, b), plus=b)

    # -- fixed-point multiply ----------------------------------------------------

    def fx_mul(self, a: LinComb, b: LinComb) -> LinComb:
        """Rescaled product, rounded half up: with gamma = 2^k and B =
        scale.value_bits, decomposes a*b + 2^(k-1) + 2^(B+k) into B+k+1
        bits and returns one wire holding the high B+1 bits less 2^B,
        which its row (high - 2^B) * 1 = out defines.

        The output is unique, so it equals ``field.fx_mul``: 2^(B+k+1) is
        far below p, which leaves one decomposition per product.  No
        product wraps mod p either: the model circuit range-checks the
        data, every product is range-checked here, and every sum feeding
        a product adds up a number of such terms linear in capacity *
        epochs, so operands stay far below sqrt(p/2).  A product whose
        rounded quotient leaves [-2^B, 2^B), where native training raises
        FixedPointOverflow, has no B+k+1 digits, so no witness satisfies
        the decomposition's sum row."""
        k, bound = self.scale.frac_bits, self.scale.value_bits
        prod = self.mul(a, b)
        offset = lc_const((1 << (k - 1)) + (1 << (bound + k)))
        wires = self.bits(self.add(prod, offset), bound + k + 1)
        high = {w: 1 << i for i, w in enumerate(wires[k:])}
        return self.mul(self.sub(high, lc_const(1 << bound)), lc_const(1))

    # -- hash gadgets ---------------------------------------------------------

    def mimc_permute(self, x: LinComb, key: LinComb) -> LinComb:
        """``hashing.mimc_permute``: per round, u = t + key + c and the rows
        u * u = u2, u2 * u2 = u4 and u4 * u = t', each defining its new
        wire; then t + key.  After the first round t is one wire above
        every wire of key, so u is key's sorted terms with c added to its
        constant, then t.  All rounds' rows are one chain record."""
        p = self.cs.modulus
        wires, coefficients = _terms(key, p)
        constant = 0
        if wires[:1] == [0]:
            del wires[0]
            constant = coefficients.pop(0)
        rounds = self.hash_cfg.rounds
        u = _terms(self.add(self.add(x, key), lc_const(round_constants(rounds)[0])), p)
        first = self.cs.chain(u, (wires, coefficients), constant, rounds)
        return self.add(lc_wire(first + 3 * rounds - 1), key)

    def _compress(self, key: LinComb, msg: LinComb) -> LinComb:
        return self.add(self.add(self.mimc_permute(msg, key), key), msg)

    def absorb(self, tag: int, items: list[LinComb]) -> LinComb:
        h = lc_const(0)
        for v in items:
            h = self._compress(self.add(h, lc_const(tag)), v)
        return h

    def hash2(self, l: LinComb, r: LinComb) -> LinComb:
        return self._compress(self.add(l, lc_const(TAG_NODE)), r)

    def hash_data_point(self, uid: LinComb, x: list[LinComb], y: LinComb) -> LinComb:
        """Range-check the uid to UID_BITS bits and each value to the value
        bound, which makes packing them into limbs injective, then absorb
        the limbs as ``hashing.hash_data_point`` does."""
        self.bits(uid, UID_BITS)
        elements = [uid, *(self.value_range(v) for v in (*x, y))]
        limbs = [
            reduce(self.add, (self.scaled(elements[i], 1 << shift) for i, shift in limb))
            for limb in point_layout(len(x))
        ]
        return self.absorb(TAG_POINT, limbs)

    def hash_model(self, weights: list[LinComb]) -> LinComb:
        return self.absorb(TAG_MODEL, weights)

    def merkle_root(self, leaves: list[LinComb], presence: list[LinComb]) -> LinComb:
        """Root of the level-by-level tree over the present prefix of a
        fixed-capacity leaf list.

        Each level hashes every adjacent pair unconditionally (static
        shape), then selects per slot between the pair hash, the odd
        carried node, and absence, driven by the presence bits.  The
        surviving slot-0 value equals the dynamic-length tree root.  Each
        choice is a ``select``, so every node is one wire.
        """
        empty = lc_const(empty_root(self.hash_cfg))
        nodes, pres = list(leaves), list(presence)
        while len(nodes) > 1:
            # both present -> pair hash; lone left node -> carried up.
            for j in range(0, len(nodes) - 1, 2):
                h = self.hash2(nodes[j], nodes[j + 1])
                nodes[j] = self.select(pres[j + 1], h, nodes[j])
            nodes, pres = nodes[::2], pres[::2]
        if not nodes:
            return empty
        return self.select(pres[0], nodes[0], empty)

    def chain_root(
        self, base: LinComb, items: list[LinComb], presence: list[LinComb], marked: list[LinComb]
    ) -> tuple[LinComb, LinComb]:
        """Append-only chain folds from base over the marked and over the
        present prefix.  Marked bits set only where presence bits are
        (``prefix_presence`` with ``within``) keep the two folds equal up
        to the marked end, so one hash per slot serves both.  Each fold
        step is a ``select``, so each running root is one wire."""
        psi_marked = psi = base
        for item, pres, mark in zip(items, presence, marked):
            h = self.hash2(psi, item)
            psi_marked = self.select(mark, h, psi_marked)
            psi = self.select(pres, h, psi)
        return psi_marked, psi

    def prefix_presence(self, presence: list[LinComb], within: list[LinComb] = ()) -> None:
        """Boolean presence bits forming a prefix: present slots precede
        absent ones.  Given ``within``, a bit is set only where the
        matching ``within`` bit is."""
        for b in presence:
            self.enforce_boolean(b)
        for prev, nxt in zip(presence, presence[1:]):
            self.cs.enforce(nxt, self.sub(lc_const(1), prev), {})
        for b, outer in zip(presence, within):
            self.cs.enforce(b, self.sub(lc_const(1), outer), {})

    def pin_absent(self, v: LinComb, present: LinComb, const: int) -> None:
        """Enforce v = const in an absent slot: (v - const) * (1 - present) = 0."""
        self.cs.enforce(self.sub(v, lc_const(const)), self.sub(lc_const(1), present), {})

    def nonzero(self, a: LinComb) -> None:
        """Enforce a != 0 via its inverse v: the row a * v = 1, with v new
        in its B and C exactly the constant 1, defines v as a's inverse
        (``r1cs``), and no v satisfies it when a is 0."""
        cs = self.cs
        cs.enforce(a, lc_wire(cs.alloc_private()), lc_const(1))


class CircuitOps:
    """The training/field ops interface over circuit linear combinations."""

    def __init__(self, builder: CircuitBuilder):
        self.b = builder

    def const(self, encoded: int) -> LinComb:
        return lc_const(encoded % self.b.cs.modulus)

    def add(self, a: LinComb, b: LinComb) -> LinComb:
        return self.b.add(a, b)

    def sub(self, a: LinComb, b: LinComb) -> LinComb:
        return self.b.sub(a, b)

    def mul(self, a: LinComb, b: LinComb) -> LinComb:
        return self.b.fx_mul(a, b)
