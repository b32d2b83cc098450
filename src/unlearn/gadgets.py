"""Gadget library for building the statement circuits.

Values inside a circuit are sparse linear combinations over wires, so
additions and constant scaling are free; only multiplications allocate
wires and constraints.  Each gadget computes the values of the wires it
allocates from the values of its inputs as it allocates them, so a
circuit built from its inputs carries its witness.  The hash gadgets
replay the exact computation of ``hashing`` and the fixed-point multiply
replays ``field.fx_mul`` via a sign bit, an absolute-value split, and
quotient/remainder range checks against the value bound of
``ScaleConfig``; where native training raises FixedPointOverflow, so do
they.
"""

from __future__ import annotations

from .field import ScaleConfig, check_value_range, fx_encode, rescale, signed_repr
from .hashing import HashConfig, empty_root, round_constants
from .r1cs import ConstraintSystem, LinComb, WitnessSynthesisError


def lc_const(v: int) -> LinComb:
    return {0: v} if v else {}


def lc_wire(w: int) -> LinComb:
    return {w: 1}


class CircuitBuilder:
    def __init__(self, cs: ConstraintSystem, scale: ScaleConfig, hash_cfg: HashConfig):
        if hash_cfg.modulus != scale.modulus:
            raise ValueError("hash and scale configs disagree on the field")
        self.cs = cs
        self.scale = scale
        self.hash_cfg = hash_cfg
        # (prod_wire, sigma_wire) pairs: sigma is unconstrained when the
        # witness product is exactly zero (both signs encode zero).
        self.sign_wires: list[tuple[int, int]] = []
        # (presence_product_wire, inverse_wire) pairs: the inverse is
        # unconstrained when the presence product is zero.
        self.inverse_wires: list[tuple[int, int]] = []

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

    def mul(self, a: LinComb, b: LinComb) -> LinComb:
        """Plain field product as a new constrained wire."""
        cs = self.cs
        w = cs.alloc_private(cs.lc_value(a) * cs.lc_value(b))
        cs.enforce(a, b, lc_wire(w))
        return lc_wire(w)

    def enforce_eq(self, a: LinComb, b: LinComb) -> None:
        self.cs.enforce(self.sub(a, b), lc_const(1), {})

    def bind(self, wire: int, a: LinComb) -> None:
        """Give a statement wire, allocated before the body that computes
        ``a``, the value of ``a``, and enforce that they are equal."""
        self.cs.values[wire] = self.cs.lc_value(a)
        self.enforce_eq(a, lc_wire(wire))

    def enforce_boolean(self, a: LinComb) -> None:
        self.cs.enforce(a, self.sub(lc_const(1), a), {})

    def bits(self, a: LinComb, width: int) -> list[int]:
        """Bit-decompose a into ``width`` boolean wires; raises
        WitnessSynthesisError if its value does not fit."""
        cs = self.cs
        v = cs.lc_value(a)
        if v >> width:
            raise WitnessSynthesisError(f"value {v} exceeds {width}-bit range check")
        wires = [cs.alloc_private((v >> i) & 1) for i in range(width)]
        for w in wires:
            self.enforce_boolean(lc_wire(w))
        self.enforce_eq({w: 1 << i for i, w in enumerate(wires)}, a)
        return wires

    def value_range(self, a: LinComb) -> None:
        """Enforce a in [-2^B, 2^B), B = scale.value_bits: the interval
        native training accepts for features and labels.  Raises
        FixedPointOverflow outside it, as native training does."""
        check_value_range(self.cs.lc_value(a), self.scale)
        limit = 1 << self.scale.value_bits
        self.bits(self.add(a, lc_const(limit)), self.scale.value_bits + 1)

    def select(self, sel: LinComb, a: LinComb, b: LinComb) -> LinComb:
        """sel * a + (1 - sel) * b for boolean sel, costing one product."""
        return self.add(b, self.mul(sel, self.sub(a, b)))

    # -- fixed-point multiply ----------------------------------------------------

    def fx_mul(self, a: LinComb, b: LinComb) -> LinComb:
        """Rescaled product: allocates sign, |product|, quotient and
        remainder, enforcing prod = (1-2*sigma)*abs, abs = q*gamma + r,
        0 <= r < gamma (bits of both r and gamma-1-r) and q < 2^B with
        B = scale.value_bits.  Returns the signed encoding of the quotient.

        The output is unique, so it equals ``field.fx_mul``: abs < 2^B *
        gamma is far below p/2, which leaves one sign and one |product|
        per nonzero product, and r < gamma leaves one (q, r) split.  No
        product wraps mod p either: the model circuit range-checks the
        data, every product is range-checked here, and every sum feeding
        a product adds up a number of such terms linear in capacity *
        epochs, so operands stay far below sqrt(p/2).  A product whose
        quotient reaches 2^B raises FixedPointOverflow, through the same
        ``field.rescale`` as native training."""
        cs = self.cs
        gamma = self.scale.gamma

        prod = self.mul(a, b)
        prod_w = next(iter(prod))
        signed = signed_repr(cs.values[prod_w], self.scale)
        q_value, r_value = rescale(signed, self.scale)

        sigma = cs.alloc_private(int(signed < 0))
        self.enforce_boolean(lc_wire(sigma))
        self.sign_wires.append((prod_w, sigma))

        absval = cs.alloc_private(abs(signed))
        one_minus_2s = self.sub(lc_const(1), self.scaled(lc_wire(sigma), 2))
        cs.enforce(one_minus_2s, prod, lc_wire(absval))

        q = cs.alloc_private(q_value)
        r = cs.alloc_private(r_value)
        cs.enforce(lc_wire(q), lc_const(gamma), self.sub(lc_wire(absval), lc_wire(r)))
        self.bits(lc_wire(r), self.scale.remainder_bits)
        self.bits(self.sub(lc_const(gamma - 1), lc_wire(r)), self.scale.remainder_bits)
        self.bits(lc_wire(q), self.scale.value_bits)

        out = cs.alloc_private(-q_value if signed < 0 else q_value)
        cs.enforce(one_minus_2s, lc_wire(q), lc_wire(out))
        return lc_wire(out)

    # -- hash gadgets ---------------------------------------------------------

    def mimc_permute(self, x: LinComb, key: LinComb) -> LinComb:
        p = self.cs.modulus
        t = x
        for c in round_constants(p, self.hash_cfg.rounds):
            u = self.add(self.add(t, key), lc_const(c))
            u2 = self.mul(u, u)
            u4 = self.mul(u2, u2)
            t = self.mul(u4, u)
        return self.add(t, key)

    def _compress(self, key: LinComb, msg: LinComb) -> LinComb:
        return self.add(self.add(self.mimc_permute(msg, key), key), msg)

    def hash1(self, v: LinComb) -> LinComb:
        return self._compress(lc_const(self.hash_cfg.tag_leaf), v)

    def hash2(self, l: LinComb, r: LinComb) -> LinComb:
        return self._compress(self.add(l, lc_const(self.hash_cfg.tag_node)), r)

    def hash_data_point(self, uid: LinComb, x: list[LinComb], y: LinComb) -> LinComb:
        h = self.hash1(uid)
        for xj in x:
            h = self.hash2(h, self.hash1(xj))
        return self.hash2(h, self.hash1(y))

    def hash_model(self, weights: list[LinComb]) -> LinComb:
        h = self.hash1(weights[0])
        for w in weights[1:]:
            h = self.hash2(h, self.hash1(w))
        return h

    def merkle_root(self, leaves: list[LinComb], presence: list[LinComb]) -> LinComb:
        """Root of the level-by-level tree over the present prefix of a
        fixed-capacity leaf list.

        Each level hashes every adjacent pair unconditionally (static
        shape), then selects per slot between the pair hash, the odd
        carried node, and absence, driven by the presence bits.  The
        surviving slot-0 value equals the dynamic-length tree root.
        """
        empty = lc_const(empty_root(self.hash_cfg))
        nodes, pres = list(leaves), list(presence)
        while len(nodes) > 1:
            nxt_nodes, nxt_pres = [], []
            for j in range(0, len(nodes), 2):
                if j + 1 == len(nodes):
                    nxt_nodes.append(nodes[j])
                    nxt_pres.append(pres[j])
                    continue
                h = self.hash2(nodes[j], nodes[j + 1])
                # both present -> pair hash; lone left node -> carried up.
                paired = self.mul(pres[j + 1], self.sub(h, nodes[j]))
                nxt_nodes.append(self.add(nodes[j], paired))
                nxt_pres.append(pres[j])
            nodes, pres = nxt_nodes, nxt_pres
        if not nodes:
            return empty
        return self.add(empty, self.mul(pres[0], self.sub(nodes[0], empty)))

    def chain_root(
        self, base: LinComb, items: list[LinComb], presence: list[LinComb], marked: list[LinComb]
    ) -> tuple[LinComb, LinComb]:
        """Append-only chain folds from base over the marked and over the
        present prefix.  Marked bits set only where presence bits are
        (``prefix_presence`` with ``within``) keep the two folds equal up
        to the marked end, so one hash per slot serves both."""
        psi_marked = psi = base
        for item, pres, mark in zip(items, presence, marked):
            h = self.hash2(psi, item)
            psi_marked = self.add(psi_marked, self.mul(mark, self.sub(h, psi_marked)))
            psi = self.add(psi, self.mul(pres, self.sub(h, psi)))
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

    def inverse_pair(self, diff: LinComb, active: LinComb) -> None:
        """Enforce diff != 0 whenever the boolean product ``active`` is 1,
        via an inverse witness: diff * v = active."""
        cs = self.cs
        active_w = next(iter(active)) if len(active) == 1 and 0 not in active else None
        d = cs.lc_value(diff)
        if not cs.lc_value(active):
            v = cs.alloc_private(0)
        elif d:
            v = cs.alloc_private(pow(d, -1, cs.modulus))
        else:
            raise WitnessSynthesisError("training and unlearnt sets intersect")
        cs.enforce(diff, lc_wire(v), active)
        if active_w is not None:
            self.inverse_wires.append((active_w, v))


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

    def encode(self, r) -> LinComb:
        return lc_const(fx_encode(r, self.b.scale))
