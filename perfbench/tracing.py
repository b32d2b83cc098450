"""Spans, counters and gadget attribution for the traced benchmark run.

Nothing here edits the program: ``Tracer.installed()`` rebinds the public
entry points of each ``unlearn`` module, in every module namespace that
looks them up, to wrappers that record a span (name, start, end, parent,
operation id) and, for some, a count.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the part covered by its
child spans, so the self times inside one operation add up to the
operation's own span.

``field`` is not wrapped: it is called too often to time without
distorting the result, and its cost falls into training, hashing and the
r1cs hints.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _count_rows(t, args, result):
    t.counts["ingest.rows"] += len(result.dataset.points)


def _count_export(t, args, result):
    t.counts["r1cs.export_bytes"] += len(result)


def _count_hints(t, args, result):
    cs = args[0]
    key = id(cs)
    if key not in t.hinted:
        t.hinted[key] = sum(1 for w in cs.wires if w.hint is not None)
    t.counts["r1cs.hinted_wires"] += t.hinted[key]


def _count_satisfied(t, args, result):
    t.counts["r1cs.is_satisfied_calls"] += 1


def _count_proof(t, args, result):
    t.counts["proofsys.proof_bytes"] += len(result.proof_bytes)


def _count_written(t, args, result):
    t.counts["serialize.bytes_written"] += len(args[1])
    if Path(args[0]).name == "state.json":
        t.counts["serialize.state_bytes"] = len(args[1])


def _count_read(t, args, result):
    t.counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_setup(t, args, result):
    t.counts["protocol.global_setup_calls"] += 1


# (module, attribute, span name, counter).  A dotted attribute is a method,
# rebound on its class; a plain one is a function, rebound in every
# ``unlearn`` module that binds the same object.  Entries whose attribute
# no longer exists are skipped.
SPANS = [
    ("protocol", "global_setup", "protocol.global_setup", _count_setup),
    ("protocol", "server_init", "protocol.init", None),
    ("protocol", "verify_init", "protocol.init", None),
    ("protocol", "queue_add", "protocol.requests", None),
    ("protocol", "queue_delete", "protocol.requests", None),
    ("protocol", "prove_update", "protocol.prove_update", None),
    ("protocol", "verify_update", "protocol.verify_update", None),
    ("protocol", "prove_unlearn", "protocol.unlearn_path", None),
    ("protocol", "verify_unlearn", "protocol.unlearn_path", None),
    ("circuits", "ModelCircuit.__init__", "circuits.model_build", None),
    ("circuits", "DataCircuit.__init__", "circuits.data_build", None),
    ("circuits", "ModelCircuit.synthesize", "circuits.model_synthesize", None),
    ("circuits", "DataCircuit.synthesize", "circuits.data_synthesize", None),
    ("r1cs", "ConstraintSystem.export", "r1cs.export", _count_export),
    ("r1cs", "ConstraintSystem.fingerprint", "r1cs.fingerprint", None),
    ("r1cs", "ConstraintSystem.synthesize", "r1cs.synthesize", _count_hints),
    ("r1cs", "ConstraintSystem.is_satisfied", "r1cs.is_satisfied", _count_satisfied),
    ("proofsys", "WitnessCheckBackend.prove", "proofsys.prove", _count_proof),
    ("proofsys", "WitnessCheckBackend.verify", "proofsys.verify", None),
    ("training", "train_model", "training.train", None),
    ("hashing", "hash_data_point", "hashing.native", None),
    ("hashing", "hash_data", "hashing.native", None),
    ("hashing", "hash_unlearn", "hashing.native", None),
    ("hashing", "hash_model_weights", "hashing.native", None),
    ("hashing", "compute_tree_path", "hashing.native", None),
    ("hashing", "verify_tree_path", "hashing.native", None),
    ("serialize", "commitment_to_dict", "serialize.encode", None),
    ("serialize", "update_proof_to_dict", "serialize.encode", None),
    ("serialize", "unlearn_proof_to_dict", "serialize.encode", None),
    ("serialize", "server_state_to_dict", "serialize.encode", None),
    ("serialize", "protocol_config_to_dict", "serialize.encode", None),
    # Self time of atomic_write_json is its json.dumps: text encoding.
    ("serialize", "atomic_write_json", "serialize.encode", None),
    ("serialize", "atomic_write_bytes", "serialize.write", _count_written),
    ("serialize", "read_json", "serialize.read", _count_read),
    ("serialize", "commitment_from_dict", "serialize.decode", None),
    ("serialize", "update_proof_from_dict", "serialize.decode", None),
    ("serialize", "unlearn_proof_from_dict", "serialize.decode", None),
    ("serialize", "server_state_from_dict", "serialize.decode", None),
    ("serialize", "protocol_config_from_dict", "serialize.decode", None),
    ("ingest", "ingest_csv", "ingest.ingest", _count_rows),
]

# Calls counted without a span, rebound in their own module only: they run
# thousands of times per operation.  Compressions made while building a
# circuit through ``gadgets``' own reference to ``empty_root`` are not
# counted.
COUNTERS = [
    ("hashing", "hash1", "hashing.compressions"),
    ("hashing", "hash2", "hashing.compressions"),
    ("hashing", "empty_root", "hashing.compressions"),
    ("training", "sgd_step_ops", "training.sgd_steps"),
]

# Span name -> (metric, "self" or "inclusive").  Every other span name
# feeds only the per-layer accounting.
TIME_METRICS = {
    "protocol.global_setup": ("protocol.global_setup_s", "inclusive"),
    "protocol.prove_update": ("protocol.prove_update_self_s", "self"),
    "protocol.verify_update": ("protocol.verify_update_self_s", "self"),
    "protocol.unlearn_path": ("protocol.unlearn_path_s", "inclusive"),
    "circuits.model_build": ("circuits.model_build_s", "inclusive"),
    "circuits.data_build": ("circuits.data_build_s", "inclusive"),
    "circuits.model_synthesize": ("circuits.model_synthesize_s", "inclusive"),
    "circuits.data_synthesize": ("circuits.data_synthesize_s", "inclusive"),
    "r1cs.export": ("r1cs.export_s", "self"),
    "r1cs.fingerprint": ("r1cs.fingerprint_s", "self"),
    "r1cs.synthesize": ("r1cs.synthesize_s", "self"),
    "r1cs.is_satisfied": ("r1cs.is_satisfied_s", "self"),
    "proofsys.prove": ("proofsys.prove_s", "self"),
    "proofsys.verify": ("proofsys.verify_s", "self"),
    "training.train": ("training.train_s", "self"),
    "hashing.native": ("hashing.native_s", "self"),
    "serialize.encode": ("serialize.encode_s", "self"),
    "serialize.decode": ("serialize.decode_s", "self"),
    "serialize.write": ("serialize.write_s", "self"),
    "serialize.read": ("serialize.read_s", "self"),
    "ingest.ingest": ("ingest.ingest_s", "self"),
}

COUNT_METRICS = (
    "cli.commands",
    "protocol.global_setup_calls",
    "r1cs.export_bytes",
    "r1cs.hinted_wires",
    "r1cs.is_satisfied_calls",
    "training.sgd_steps",
    "hashing.compressions",
    "proofsys.proof_bytes",
    "serialize.bytes_written",
    "serialize.bytes_read",
    "serialize.state_bytes",
    "ingest.rows",
)


def _unlearn_modules():
    return [m for n, m in list(sys.modules.items()) if n == "unlearn" or n.startswith("unlearn.")]


class Tracer:
    """In-memory span recorder.  Each span is [name, start, end, parent,
    op]; an operation is a root span opened with ``op``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.hinted: dict[int, int] = {}
        self._ops = 0

    def _open(self, name: str, op=None) -> int:
        parent = self.stack[-1] if self.stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        self.spans.append([name, perf_counter(), None, parent, op])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str, op=None):
        idx = self._open(name, op)
        try:
            yield
        finally:
            self._close(idx)

    def op(self, kind: str):
        """A root span: one benchmark operation."""
        self._ops += 1
        return self.span(f"op.{kind}", op=self._ops)

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def _counting(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the entry points for the duration of the block."""
        undo = []

        def rebind(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = _unlearn_modules()
        for mod_name, attr, name, count in SPANS:
            module = importlib.import_module(f"unlearn.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    rebind(cls, meth, self._wrap(cls.__dict__[meth], name, count))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        rebind(m, key, wrapped)
        for mod_name, attr, key in COUNTERS:
            module = importlib.import_module(f"unlearn.{mod_name}")
            if attr in vars(module):
                rebind(module, attr, self._counting(vars(module)[attr], key))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's
        intervals, clipped to the span."""
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] is not None:
                children[s[3]].append(i)
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, cursor = 0.0, start
            for c in sorted(children[i], key=lambda c: self.spans[c][1]):
                lo = max(self.spans[c][1], cursor)
                hi = min(self.spans[c][2], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def accounting(self):
        """Checks that the self times inside each operation add up to the
        operation's span.  Returns the largest gap in seconds, the number
        of spans recorded outside any operation, and self time by
        operation kind and layer."""
        selfs = self.self_times()
        inside: dict = defaultdict(float)
        layers: dict = defaultdict(lambda: defaultdict(float))
        roots = {s[4]: i for i, s in enumerate(self.spans) if s[3] is None and s[4] is not None}
        outside = 0
        for i, s in enumerate(self.spans):
            if s[4] not in roots:
                outside += 1
                continue
            inside[s[4]] += selfs[i]
            kind = self.spans[roots[s[4]]][0].removeprefix("op.")
            layer = s[0].split(".")[0]
            layers[kind]["bench" if layer == "op" else layer] += selfs[i]
        gap = max(
            (abs(inside[op] - (self.spans[i][2] - self.spans[i][1])) for op, i in roots.items()),
            default=0.0,
        )
        return gap, outside, {k: dict(v) for k, v in layers.items()}

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {metric: 0.0 for metric, _ in TIME_METRICS.values()}
        for i, s in enumerate(self.spans):
            entry = TIME_METRICS.get(s[0])
            if entry is None:
                continue
            metric, mode = entry
            out[metric] += selfs[i] if mode == "self" else s[2] - s[1]
        for key in COUNT_METRICS:
            out[key] = self.counts[key]
        return out


# -- gadget attribution ---------------------------------------------------------

# CircuitBuilder method -> constraint category.  A constraint belongs to
# the innermost of these that added it; constraints added outside all of
# them (statement bindings, for one) are "other".
GADGETS = {
    "fx_mul": "fx_mul",
    "bits": "range_bit",
    "_compress": "hash",
    "select": "select",
    "merkle_root": "select",
    "chain_root": "select",
    "prefix_presence": "presence",
    "inverse_pair": "disjoint",
}
CATEGORIES = ("fx_mul", "range_bit", "hash", "select", "presence", "disjoint")
REPORTED = {
    "model": ("fx_mul", "range_bit", "hash", "select", "presence"),
    "data": ("hash", "select", "disjoint", "presence"),
}


def attribute_gadgets(config) -> dict[str, int]:
    """Build both circuits for ``config`` with the builder methods wrapped
    and count each constraint once.  Raises if the categories and
    ``other`` do not add up to the circuit's constraint count."""
    from unlearn import gadgets, protocol, r1cs

    stack: list[int] = []
    counts: dict[int, Counter] = defaultdict(Counter)
    builder = gadgets.CircuitBuilder
    saved = {name: builder.__dict__[name] for name in GADGETS if name in builder.__dict__}
    enforce = r1cs.ConstraintSystem.enforce

    def counted_enforce(cs, *args, **kwargs):
        if not stack:
            counts[id(cs)]["other"] += 1
        return enforce(cs, *args, **kwargs)

    def gadget(fn, category):
        def wrapper(self, *args, **kwargs):
            cs = self.cs
            if category == "disjoint" and not stack:
                # The presence product gating the pair is enforced just
                # before the call, outside any gadget: it belongs to the
                # disjointness check.
                active = args[1] if len(args) > 1 else kwargs.get("active")
                if (
                    isinstance(active, dict)
                    and len(active) == 1
                    and cs.constraints
                    and cs.constraints[-1][2] == active
                ):
                    counts[id(cs)]["other"] -= 1
                    counts[id(cs)]["disjoint"] += 1
            before = len(cs.constraints)
            stack.append(0)
            try:
                return fn(self, *args, **kwargs)
            finally:
                inner = stack.pop()
                added = len(cs.constraints) - before
                counts[id(cs)][category] += added - inner
                if stack:
                    stack[-1] += added

        return wrapper

    try:
        r1cs.ConstraintSystem.enforce = counted_enforce
        for name, fn in saved.items():
            setattr(builder, name, gadget(fn, GADGETS[name]))
        pub = protocol.global_setup(config)
    finally:
        r1cs.ConstraintSystem.enforce = enforce
        for name, fn in saved.items():
            setattr(builder, name, fn)

    out: dict[str, int] = {}
    for label, circuit in (("model", pub.model_circuit), ("data", pub.data_circuit)):
        cs = circuit.cs
        c = counts[id(cs)]
        total = len(cs.constraints)
        if sum(c[k] for k in CATEGORIES) + c["other"] != total:
            raise RuntimeError(f"{label} circuit: gadget attribution does not add up")
        out[f"circuits.{label}_constraints"] = total
        out[f"circuits.{label}_wires"] = cs.num_wires
        for k in REPORTED[label]:
            out[f"gadgets.{label}.{k}_constraints"] = c[k]
        # Categories not reported for this circuit (zero today) fold into other.
        out[f"gadgets.{label}.other_constraints"] = total - sum(c[k] for k in REPORTED[label])

    # Unit costs: one gadget on a fresh constraint system.
    scale, hash_cfg = config.train.scale, config.hash_cfg
    for name, build in (
        ("gadgets.fx_mul_unit", lambda b, x, y: b.fx_mul(x, y)),
        ("gadgets.compress_unit", lambda b, x, y: b.hash2(x, y)),
    ):
        cs = r1cs.ConstraintSystem(scale.modulus)
        b = gadgets.CircuitBuilder(cs, scale, hash_cfg)
        x, y = ({cs.alloc_private(name=n): 1} for n in ("x", "y"))
        build(b, x, y)
        out[name] = len(cs.constraints)
    return out
