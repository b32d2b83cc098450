"""The strict load and the walk against conftest's row-by-row reference, on
stored circuits with one field edited as a faulty builder would write
it: either the load refuses the file, or the loaded system has the
reference's free wires and ``complete`` returns what the reference walk
returns, the same list or the same first failing row."""

import functools
import random
import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import TINY_ROUNDS, free_wires, walk_outcome, walk_rows
from unlearn.circuits import DataCircuit, ModelCircuit, data_projection, model_projection
from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.field import fx_encode
from unlearn.hashing import DataPoint, hash_data_point
from unlearn.protocol import ProtocolConfig
from unlearn.r1cs import MAGIC, ConstraintSystem
from unlearn.training import Dataset, default_train_config

SYSTEMS = [
    (kind, circuit, capacity)
    for kind in ("linear", "logistic")
    for circuit in (ModelCircuit, DataCircuit)
    for capacity in (1, 2)
]


@functools.cache
def stored(kind, circuit, capacity) -> tuple[bytes, list[int]]:
    """The export of one small circuit at the reduced hash, and the
    projection of one present point, or one point trained on and one
    unlearnt."""
    config = ProtocolConfig(
        train=default_train_config(kind, 1, epochs=1),
        capacity=capacity,
        unlearn_capacity=capacity,
        backend="witness-check",
        hash_rounds=TINY_ROUNDS,
    )
    scale = config.train.scale
    points = [DataPoint(uid, (fx_encode(0.5, scale),), fx_encode(1, scale)) for uid in (1, 2)]
    if circuit is ModelCircuit:
        given = model_projection(config, Dataset(tuple(points[:1]), 1))[0]
    else:
        digests = [hash_data_point(d, config.hash_cfg) for d in points]
        given = data_projection(config, digests[:1], [], digests[1:])
    return circuit(config).cs.export(), given


# -- the stored layout, field by field ----------------------------------------------

FIELDS = 7  # per record: row, rounds, width, first wire, u terms, key terms, k_1


def u32s(data: bytes, at: int, n: int) -> tuple[list[int], int]:
    return list(struct.unpack_from(f"<{n}I", data, at)), at + 4 * n


def record_rows(fields: list[int]) -> int:
    rounds, width = fields[1], fields[2]
    return 3 * rounds if rounds else width + 1


def decode(data: bytes) -> dict:
    """A stored file's fields as lists: the header's counts, the table,
    each record's fields, the records' term wires and coefficient ids,
    and each plain matrix's counts, wire ids and coefficient ids."""
    at = len(MAGIC)
    (k,), at = u32s(data, at, 1)
    at += k
    (wires, public, rows, coefficients, n), at = u32s(data, at, 5)
    table = [int.from_bytes(data[at + i * k:at + (i + 1) * k], "little") for i in range(coefficients)]
    at += coefficients * k
    flat, at = u32s(data, at, FIELDS * n)
    records = [flat[i:i + FIELDS] for i in range(0, len(flat), FIELDS)]
    terms = sum(r[4] + r[5] for r in records)
    term_wires, at = u32s(data, at, terms)
    term_ids, at = u32s(data, at, terms)
    plain = rows - sum(map(record_rows, records))
    matrices = []
    for _ in "ABC":
        counts, at = u32s(data, at, plain)
        ids, at = u32s(data, at, 2 * sum(counts))
        matrices.append([counts, ids[:len(ids) // 2], ids[len(ids) // 2:]])
    return {"k": k, "wires": wires, "public": public, "rows": rows, "table": table,
            "records": records, "terms": [term_wires, term_ids], "matrices": matrices}


def encode(f: dict) -> bytes:
    pack = lambda xs: struct.pack(f"<{len(xs)}I", *xs)
    k = f["k"]
    out = MAGIC + pack([k]) + P.to_bytes(k, "little")
    out += pack([f["wires"], f["public"], f["rows"], len(f["table"]), len(f["records"])])
    out += b"".join(c.to_bytes(k, "little") for c in f["table"])
    out += pack([v for r in f["records"] for v in r]) + pack(f["terms"][0]) + pack(f["terms"][1])
    for counts, wires, ids in f["matrices"]:
        out += pack(counts) + pack(wires) + pack(ids)
    return out


def row_span(counts, row) -> tuple[int, int]:
    lo = sum(counts[:row])
    return lo, lo + counts[row]


# -- edits ---------------------------------------------------------------------------

PLAIN_EDITS = ["wire", "coefficient", "shift", "swap", "table"]
RECORD_EDITS = ["width", "rounds", "first", "term wire", "term id", "position"]


def edit(f: dict, rng: random.Random) -> str:
    """Apply one edit to the fields ``f`` in place and return its name.
    In the plain rows: a wire id moved or set, a coefficient id swapped
    for another table entry, a term moved between adjacent rows by
    shifting a count, two adjacent rows swapped, or a table coefficient
    changed.  In one record: its width or round count moved by one, the
    rows of the file and of the records after it with it; its first wire
    moved or set; a wire or coefficient id of its u, A or key terms
    changed; or its row moved by one, past a plain row."""
    matrices, table, records = f["matrices"], f["table"], f["records"]
    kind = rng.choice(PLAIN_EDITS + RECORD_EDITS)
    m = rng.randrange(3)
    counts, wires, ids = matrices[m]
    rows = len(counts)
    i = rng.randrange(len(records))
    record = records[i]
    if kind in ("wire", "coefficient") and wires:
        t = rng.randrange(len(wires))
        if kind == "wire":
            wires[t] = rng.choice([wires[t] - 1, wires[t] + 1, rng.randrange(f["wires"] + 1)])
            wires[t] = max(wires[t], 0)
        else:
            ids[t] = rng.randrange(len(table) + 1)
    elif kind == "shift" and rows > 1:
        i = rng.randrange(rows - 1)
        src, dst = rng.sample([i, i + 1], 2)
        if counts[src]:
            counts[src] -= 1
            counts[dst] += 1
    elif kind == "swap" and rows > 1:
        i = rng.randrange(rows - 1)
        for counts, wires, ids in matrices:
            lo, mid = row_span(counts, i)
            hi = mid + counts[i + 1]
            wires[lo:hi] = wires[mid:hi] + wires[lo:mid]
            ids[lo:hi] = ids[mid:hi] + ids[lo:mid]
            counts[i], counts[i + 1] = counts[i + 1], counts[i]
    elif kind == "table":
        j = rng.randrange(len(table))
        table[j] = rng.choice([table[j] - 1, table[j] + 1, rng.randrange(P)]) % P
    elif kind in ("width", "rounds"):
        field = 2 if kind == "width" else 1
        if record[field]:
            before = record_rows(record)
            record[field] += rng.choice([-1, 1])
            moved = record_rows(record) - before
            f["rows"] += moved
            for later in records[i + 1:]:
                later[0] += moved
    elif kind == "first":
        record[3] = max(0, rng.choice([record[3] - 1, record[3] + 1, rng.randrange(f["wires"])]))
    elif kind in ("term wire", "term id"):
        start = sum(r[4] + r[5] for r in records[:i])
        if record[4] + record[5]:
            t = start + rng.randrange(record[4] + record[5])
            term_wires, term_ids = f["terms"]
            if kind == "term wire":
                term_wires[t] = max(0, rng.choice([term_wires[t] - 1, term_wires[t] + 1]))
            else:
                term_ids[t] = rng.randrange(len(table) + 1)
    elif kind == "position":
        record[0] = max(0, record[0] + rng.choice([-1, 1]))
    return kind


def projections(cs, honest, rng) -> list[list[int]]:
    """The honest projection if it has the edited system's length, the
    same with one value moved, and one of random values, mostly 0 and
    1, as range checks and presence bits read."""
    n = 1 + cs.num_public + len(free_wires(cs))
    out = []
    if len(honest) == n:
        moved = list(honest)
        i = rng.randrange(1, n)
        moved[i] = (moved[i] + rng.choice([1, P - 1])) % P
        out += [list(honest), moved]
    out.append([1] + [rng.choice([0, 1, rng.randrange(P)]) for _ in range(n - 1)])
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(system=st.sampled_from(SYSTEMS), seed=st.integers(0, 2**32 - 1))
def test_an_edited_circuit_is_refused_or_walked_as_its_rows(system, seed):
    data, honest = stored(*system)
    rng = random.Random(seed)
    fields = decode(data)
    edit(fields, rng)
    edited = encode(fields)
    try:
        cs = ConstraintSystem.from_export(edited)
    except ValueError:
        return
    assert cs.free_wires() == free_wires(cs)
    for given_ in projections(cs, honest, rng):
        assert walk_outcome(ConstraintSystem.complete, cs, given_) == walk_outcome(
            walk_rows, cs, given_
        )


def test_the_layout_codec_round_trips():
    for system in SYSTEMS:
        data, honest = stored(*system)
        assert encode(decode(data)) == data
        cs = ConstraintSystem.from_export(data)
        assert walk_outcome(ConstraintSystem.complete, cs, honest) == walk_rows(cs, honest)
