"""Operator command line: protocol driving, proof files, games, benchmarks.

State lives in a directory of versioned JSON envelopes:
``pub/`` holds the public parameters, ``commitments/`` and ``proofs/`` the
per-iteration outputs, and ``state.json`` the server state, which keeps
an unlearnt point's uid and digest, not its row.  Files are the
wire format: a verifier needs only ``pub/``, the commitments, and the
proof files.  ``serialize.StateDir`` owns them: their envelopes and
versions, and the write order that makes ``state.json`` the commit point
of ``init`` and ``update``.  Commands parse their options, call
``protocol`` and print.

``pub/`` is written once, by ``setup``:

* ``params.json``: the protocol config and each circuit's (model and
  data) fingerprint; the fixed-point format (``field``'s constants) is
  not in it, and no config key sets it;
* ``circuits/<fingerprint>.r1cs``: each circuit's stored file, the
  bytes its fingerprint (SHA-256) is taken over: a header (magic,
  modulus, wire, public, row, coefficient and record counts), the
  coefficient table, the records (one per range check's bit
  decomposition and one per MiMC permutation, each with its row, width
  or round count, first wire and combinations), then the rows outside
  them, per matrix A, B, C the row term counts, wire ids and
  coefficient ids as little-endian u32 arrays (see ``r1cs``).  The rows
  the records stand for are not stored: ``ConstraintSystem.expand``
  writes every row, the Groth16 helper's input;
* ``setups/snark/<fingerprint>/pk.bin`` and ``vk.bin``: each circuit's
  Groth16 proving and verifying keys.  The witness-check backend has no
  keys and writes no ``setups/``.

``setup`` then removes every export and every key that ``params.json``
does not use: other circuits' exports, and the keys of other circuits
or of another backend.

Every command reads ``params.json``, and each other file only when it
needs it.  Only ``setup`` and ``audit-setup`` build circuits (``game
--negative-control`` runs a setup of its own, and ``bench`` runs setup,
update and verify-update in a temporary directory).  ``update`` computes
each circuit's inputs from the config and the state, natively, and
completes them against the stored export, after checking its SHA-256;
inputs the stored rows refuse mean the config no longer matches the
circuit ``setup`` compiled, and ``update`` exits 3 without writing.  On
snark it reads the proving keys.  ``verify-update`` on the witness-check
backend reads the stored exports too; on the snark backend it reads only
the verifying keys.  ``init``, ``add``, ``delete``, ``prove-unlearn`` and
``verify-unlearn`` read nothing under ``setups/``.  The circuit,
benchmark and game modules are imported only by the commands that run
them, so the others start without them.
``audit-setup`` rebuilds both circuits from the stored config and checks
the stored fingerprints and files, and that each stored file loads and
expands to the rebuilt circuit's rows (its row fingerprint), for anyone
who wants to tie ``pub/`` to the config.

Each command accepts ``--dir``, ``--json`` and only the options it reads
(``COMMANDS``).  Exit codes: 0 success/accept, 1 reject (an
``audit-setup`` mismatch included, an ``add`` or ``delete`` that
would leave the next update beyond a compiled capacity, and a
``prove-unlearn`` of a uid never unlearnt), 2 usage error
(an option the command does not read, a config key that does not exist
or a value it cannot hold, a ``--uid`` outside [0, 2^64) or a negative
``--iteration``, ``bench --config`` or ``--backend`` with a ``--dir``
that holds parameters, ``init`` on an initialized directory, an
unreadable ``--config`` or ``--dataset`` file, or a ``--dataset`` with a
categorical column outside ``bench`` included), 3 corrupt state (a state directory that cannot be read, a missing or
altered circuit export, a missing, unreadable or malformed key file, a
config that no longer matches the stored circuit, a state that lists an
unlearnt uid twice, a state whose queued batch meets its unlearnt set,
or an unlearning proof file that names another uid or iteration).
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .field import FixedPointOverflow, ScaleConfig, fx_encode
from .hashing import MAX_UID, DataPoint, NotMemberError
from .proofsys import BackendUnavailable, ProofSysError, WitnessCheckBackend
from .protocol import (
    CorruptState,
    DuplicateAdd,
    ProtocolConfig,
    ReAddAfterDelete,
    check_capacity,
    check_point,
    global_setup,
    prove_unlearn,
    prove_update,
    queue_adds,
    queue_delete,
    server_init,
    verify_init,
    verify_unlearn,
    verify_update,
)
from .serialize import EnvelopeError, StateDir, commitment_to_dict
from .training import ShapeMismatch, ShapeOverflow, accuracy, default_train_config, train_model

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3

CONFIG_DEFAULTS = {
    "kind": "linear",
    "hidden": "0",
    "arity": "1",
    "epochs": "10",
    "learning_rate": "0.1",
    "capacity": "8",
    "unlearn_capacity": "8",
    "backend": "witness-check",
    "hash_rounds": "110",
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key] = val
    return values


def build_protocol_config(options: dict[str, str]) -> ProtocolConfig:
    opts = dict(CONFIG_DEFAULTS)
    unknown = set(options) - set(CONFIG_DEFAULTS)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    opts.update(options)
    if opts["kind"] == "nn" and "hidden" not in options:
        raise CliError("bad configuration: kind = nn needs a hidden key (2 or 4)")
    try:
        train = default_train_config(
            opts["kind"],
            int(opts["arity"]),
            hidden=int(opts["hidden"]),
            epochs=int(opts["epochs"]),
            learning_rate=Fraction(opts["learning_rate"]),
        )
        return ProtocolConfig(
            train=train,
            capacity=int(opts["capacity"]),
            unlearn_capacity=int(opts["unlearn_capacity"]),
            backend=opts["backend"],
            hash_rounds=int(opts["hash_rounds"]),
        )
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        # ValueError covers ConfigError; a learning rate of 1/0 raises
        # ZeroDivisionError, and one too large to encode OverflowError.
        raise CliError(f"bad configuration: {e}") from e


@contextmanager
def dir_lock(store: StateDir):
    store.root.mkdir(parents=True, exist_ok=True)
    with open(store.lock_file, "w") as fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CliError(f"another command holds {store.lock_file}", EXIT_CORRUPT)
        yield


def load_pub(store: StateDir):
    try:
        return store.load_public_params()
    except FileNotFoundError:
        raise CliError(f"{store.root} is not initialized (run setup first)")
    except (KeyError, TypeError, ValueError) as e:
        # ValueError covers EnvelopeError and a JSON decode error; a field
        # of the wrong type raises TypeError.
        raise CliError(f"corrupt parameters: {e}", EXIT_CORRUPT)


def load_state(store: StateDir, pub):
    """The stored server state, which must hold points of the config's arity."""
    try:
        state = store.load_state()
    except FileNotFoundError:
        raise CliError("no server state (run init first)")
    except (KeyError, TypeError, ValueError) as e:
        # ValueError covers EnvelopeError and a JSON decode error; a field
        # of the wrong type raises TypeError.
        raise CliError(f"corrupt state: {e}", EXIT_CORRUPT)
    arity = pub.config.train.arity
    if state.dataset.arity != arity:
        raise CliError(
            f"corrupt state: state arity {state.dataset.arity} is not the config's arity {arity}",
            EXIT_CORRUPT,
        )
    return state


def ingest_dataset(path: str, scale: ScaleConfig, categorical: bool = False):
    """ingest_csv for a command's --dataset.  An unreadable file and bad
    input (a SchemaError or other ValueError, or a value too large to
    encode) are usage errors.  A categorical column's codes depend on the
    file, so only ``categorical`` (bench's one-file report) accepts one.
    Only commands that read a CSV load ``ingest``."""
    from .ingest import ingest_csv

    try:
        return ingest_csv(path, scale, categorical=categorical)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    except (ValueError, OverflowError) as e:
        raise CliError(f"cannot ingest {path}: {e}")


def find_point(args, pool, scale: ScaleConfig, missing: str) -> DataPoint:
    """The --uid point from ``pool``, else from --dataset; else ``missing``."""
    point = next((d for d in pool if d.uid == args.uid), None)
    if point is None and args.dataset:
        rows = ingest_dataset(args.dataset, scale).dataset.points
        point = next((d for d in rows if d.uid == args.uid), None)
    if point is None:
        raise CliError(missing)
    return point


@contextmanager
def reading_envelopes():
    """A missing envelope is a usage error, an unreadable one corrupt state."""
    try:
        yield
    except FileNotFoundError as e:
        raise CliError(f"missing envelope: {e.filename}")
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"corrupt envelope: {e}", EXIT_CORRUPT)


def emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(text)


# -- commands -----------------------------------------------------------------


def cmd_setup(args) -> int:
    store = StateDir(args.dir)
    options = parse_config_file(args.config) if args.config else {}
    if args.backend:
        options["backend"] = args.backend
    config = build_protocol_config(options)
    with dir_lock(store):
        # Another config would orphan the stored proofs.
        if store.state_file.exists() and load_pub(store).config != config:
            raise CliError(f"{store.root} is initialized under another config")
        pub = global_setup(config, setup_store=store.setup_store)
        store.save_params(pub)
    payload = {
        "dir": str(store.root),
        "backend": config.backend,
        "model_fingerprint": pub.model_relation.fingerprint,
        "data_fingerprint": pub.data_relation.fingerprint,
        "model_constraints": pub.model_relation.circuit.num_constraints,
        "data_constraints": pub.data_relation.circuit.num_constraints,
    }
    if args.json:
        # Finding the free wires walks the rows: only --json reports them.
        payload["model_free_wires"] = len(pub.model_relation.circuit.free_wires())
        payload["data_free_wires"] = len(pub.data_relation.circuit.free_wires())
    emit(args, payload, f"setup complete in {store.root} (backend {config.backend})")
    return EXIT_OK


def cmd_init(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    with dir_lock(store):
        # A second init would reset the iteration and the deleted uids
        # under the stored commitments and proofs.
        if store.state_file.exists():
            raise CliError(f"{store.root} is already initialized")
        state, com, marker = server_init(pub)
        store.save_iteration(state, com, marker)
    emit(args, {"iteration": 0, "commitment": commitment_to_dict(com, pub.scale)},
         "initialized: com_0 written")
    return EXIT_OK


def _point_from_args(args, pub) -> DataPoint:
    if args.features is None or args.uid is None or args.label is None:
        raise CliError("add needs --dataset or all of --uid/--features/--label")
    scale = pub.scale
    try:
        feats = tuple(fx_encode(Fraction(v), scale) for v in args.features.split(","))
        return DataPoint(uid=args.uid, x=feats, y=fx_encode(Fraction(args.label), scale))
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise CliError(f"bad --features/--label: {e}")


def cmd_add(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    with dir_lock(store):
        state = load_state(store, pub)
        if args.dataset:
            points = ingest_dataset(args.dataset, pub.scale).dataset.points
        else:
            points = (_point_from_args(args, pub),)
        try:
            state = queue_adds(state, points, pub)
        except (ReAddAfterDelete, DuplicateAdd, ValueError, FixedPointOverflow) as e:
            raise CliError(str(e), EXIT_REJECT)
        store.save_state(state)
    emit(args, {"queued_add": len(points)}, f"queued {len(points)} addition(s)")
    return EXIT_OK


def cmd_delete(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    if args.uid is None:
        raise CliError("delete needs --uid")
    with dir_lock(store):
        state = load_state(store, pub)
        point = find_point(
            args, (*state.dataset.points, *state.pending_add), pub.scale,
            f"uid {args.uid} not found; pass --dataset with the point's row",
        )
        try:
            check_point(pub, point)
            state = queue_delete(state, point)
            check_capacity(state, pub)
        except (FixedPointOverflow, ShapeMismatch) as e:
            # update could not hash it, no verifier would accept its proof,
            # or no update could prove the unlearnt set it would make.
            raise CliError(f"uid {args.uid} not queued: {e}", EXIT_REJECT)
        store.save_state(state)
    emit(args, {"queued_delete": args.uid}, f"queued deletion of uid {args.uid}")
    return EXIT_OK


def cmd_update(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    with dir_lock(store):
        state = load_state(store, pub)
        try:
            state, model, com, proof = prove_update(state, pub)
        except (ShapeOverflow, FixedPointOverflow) as e:
            raise CliError(str(e), EXIT_REJECT)
        except CorruptState as e:
            raise CliError(f"corrupt state: {e}", EXIT_CORRUPT)
        store.save_iteration(state, com, proof)
    i = state.iteration
    emit(
        args,
        {
            "iteration": i,
            "dataset_size": len(state.dataset.points),
            "unlearnt_size": len(state.unlearnt),
            "commitment": commitment_to_dict(com, pub.scale),
        },
        f"iteration {i}: |D|={len(state.dataset.points)}, "
        f"|U|={len(state.unlearnt)}; proofs written",
    )
    return EXIT_OK


def cmd_verify_update(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    i = args.iteration
    if i is None:
        raise CliError("verify-update needs --iteration")
    with reading_envelopes():
        if i == 0:
            ok = verify_init(pub, store.load_commitment(0), store.load_init_marker())
        else:
            com_prev, com = store.load_commitment(i - 1), store.load_commitment(i)
            ok = verify_update(pub, com_prev, com, store.load_update_proof(i))
    emit(args, {"iteration": i, "accepted": ok},
         f"iteration {i}: {'accept' if ok else 'REJECT'}")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_prove_unlearn(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    if args.uid is None:
        raise CliError("prove-unlearn needs --uid")
    with dir_lock(store):
        state = load_state(store, pub)
        try:
            proof = prove_unlearn(pub, state, args.uid)
        except NotMemberError as e:
            raise CliError(e.args[0], EXIT_REJECT)
        path = store.save_unlearn_proof(proof)
    emit(args, {"iteration": proof.iteration, "uid": args.uid, "file": str(path)},
         f"unlearning proof for uid {args.uid} written ({path.name})")
    return EXIT_OK


def cmd_verify_unlearn(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    if args.uid is None or args.iteration is None:
        raise CliError("verify-unlearn needs --uid and --iteration")
    if not args.dataset:
        raise CliError("verify-unlearn needs --dataset with the point's row "
                       "(the verifying user supplies their own data point)")
    point = find_point(args, (), pub.scale, f"uid {args.uid} not present in {args.dataset}")
    with reading_envelopes():
        com = store.load_commitment(args.iteration)
        proof = store.load_unlearn_proof(args.iteration, args.uid)
    try:
        ok = verify_unlearn(pub, point, com, proof)
        reason = "" if ok else "path mismatch: recomputed root differs from commitment"
    except (FixedPointOverflow, ShapeMismatch) as e:
        # The row is no point of this setup, so it was never unlearnt.
        ok, reason = False, str(e)
    payload = {"iteration": args.iteration, "uid": args.uid, "accepted": ok}
    emit(args, payload | ({"reason": reason} if reason else {}),
         f"unlearning of uid {args.uid} at iteration {args.iteration}: "
         f"{'accept' if ok else 'REJECT'}{f' ({reason})' if reason else ''}")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_audit_setup(args) -> int:
    """Rebuild both circuits from the stored config and compare each with
    its params.json fingerprint and its stored file, by SHA-256, and the
    stored file's expansion with the rebuilt rows, by their row
    fingerprints.  The rebuilt circuit is hashed, not exported, and
    dropped before the stored file is read; a stored file the strict
    load refuses fails the rows check."""
    from .circuits import DataCircuit, ModelCircuit
    from .r1cs import ConstraintSystem, fingerprint_of

    store = StateDir(args.dir)
    pub = load_pub(store)
    checks = {}
    for name, circuit, rel in (
        ("model", ModelCircuit, pub.model_relation),
        ("data", DataCircuit, pub.data_relation),
    ):
        cs = circuit(pub.config).cs
        fingerprint, rows = cs.fingerprint(), cs.expand()
        del cs
        path = store.setup_store.circuit_file(rel.fingerprint)
        stored = path.read_bytes() if path.is_file() else None
        try:
            expanded = stored is not None and ConstraintSystem.from_export(stored).expand()
        except ValueError:
            expanded = None
        checks[name] = {
            "fingerprint": fingerprint == rel.fingerprint,
            "export": stored is not None and fingerprint_of(stored) == fingerprint,
            "rows": expanded == rows,
        }
    failed = [f"{name} {what}" for name, c in checks.items() for what, ok in c.items() if not ok]
    emit(args, {"dir": str(store.root), "checks": checks, "accepted": not failed},
         "setup matches the config" if not failed else f"MISMATCH: {', '.join(failed)}")
    return EXIT_REJECT if failed else EXIT_OK


def cmd_game(args) -> int:
    from .game import BUILTIN_STRATEGIES, run_suite

    if args.seeds < 1:
        raise CliError(f"bad --seeds {args.seeds}: expected a positive integer")
    store = StateDir(args.dir)
    pub = load_pub(store)
    if pub.config.capacity < 4:
        raise CliError("the game needs a capacity >= 4 setup")
    strategies = BUILTIN_STRATEGIES
    if args.strategy:
        strategies = [s for s in BUILTIN_STRATEGIES if s.name == args.strategy]
        if not strategies:
            names = ", ".join(s.name for s in BUILTIN_STRATEGIES)
            raise CliError(f"unknown strategy {args.strategy!r} (choose from {names})")
    if args.negative_control:
        pub = global_setup(pub.config, backend=WitnessCheckBackend(check=False),
                           setup_store=None)
    else:
        # The suite proves and verifies many times: load each circuit once.
        pub = dataclasses.replace(pub, model_relation=pub.model_relation.held(),
                                  data_relation=pub.data_relation.held())
    seeds = list(range(args.seeds))
    reports = run_suite(pub, seeds, strategies)
    wins = [r for r in reports if r.verdict == 1]
    payload = {"reports": [r.to_dict() for r in reports], "wins": len(wins)}
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for r in reports:
            print(f"{r.strategy:26s} seed={r.seed} verdict={r.verdict} "
                  f"failing={r.failing_check}")
    if args.negative_control:
        return EXIT_OK if wins else EXIT_REJECT
    return EXIT_OK if not wins else EXIT_REJECT


def cmd_bench(args) -> int:
    from .bench import DEFAULT_SIZES, bench_sizes
    from .ingest import split_dataset

    try:
        split = float(args.split)
    except ValueError:
        split = 0.0  # not a number: refused below with the out-of-range ratios
    if not 0 < split < 1:
        raise CliError(f"bad --split {args.split!r}: expected a number in (0, 1)")
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",")) if args.sizes else DEFAULT_SIZES
    except ValueError:
        sizes = (0,)  # not a list of integers: refused below with the non-positive sizes
    if min(sizes) < 1:
        raise CliError(f"bad --sizes {args.sizes!r}: expected comma-separated positive integers")
    if args.dir:
        ignored = [f"--{name}" for name in ("config", "backend") if getattr(args, name)]
        if ignored:
            raise CliError(
                f"{' and '.join(ignored)} cannot be combined with --dir {args.dir}, "
                "which holds its own parameters"
            )
        config = load_pub(StateDir(args.dir)).config
    else:
        options = parse_config_file(args.config) if args.config else {}
        if args.backend:
            options["backend"] = args.backend
        config = build_protocol_config(options)
    report = None
    if args.dataset:
        # Before the benchmark, so a bad file is refused at once.
        scale = config.train.scale
        ingested = ingest_dataset(args.dataset, scale, categorical=True)
        try:
            train_set, test_set = split_dataset(ingested.dataset, split)
        except ValueError as e:
            raise CliError(f"cannot report accuracy on {args.dataset}: {e}")
        train_cfg = dataclasses.replace(config.train, arity=ingested.dataset.arity)
        threshold = fx_encode(Fraction(1, 2), scale)
        try:
            model = train_model(train_set, train_cfg)
            report = {
                "train": float(accuracy(model, train_set, threshold, scale)),
                "test": float(accuracy(model, test_set, threshold, scale)),
                "split": split,
            }
        except FixedPointOverflow as e:
            raise CliError(f"cannot train on {args.dataset}: {e}", EXIT_REJECT)
    entries = bench_sizes(sizes, config, counts_only=args.counts_only)
    payload = {"backend": config.backend, "entries": [e.to_dict() for e in entries]}
    if report:
        payload["accuracy"] = report

    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for e in entries:
            t = e.timings
            line = (
                f"|D|={e.size:5d} |U|={e.unlearn_size:4d} "
                f"model_constraints={e.model_constraints:9d} "
                f"data_constraints={e.data_constraints:8d}"
            )
            if t:
                line += (
                    f" setup={t['setup_s']:7.2f}s update={t['update_s']:7.2f}s"
                    f" verify={t['verify_s']:6.3f}s proof={e.update_proof_bytes}B"
                )
            print(line)
        if "accuracy" in payload:
            acc = payload["accuracy"]
            print(f"accuracy: train={acc['train']:.3f} test={acc['test']:.3f} "
                  f"(split {acc['split']:.2f})")
    if any(e.timings.get("verified") == 0.0 for e in entries):
        print("error: an honest update proof did not verify", file=sys.stderr)
        return EXIT_REJECT
    return EXIT_OK


# Each command's options beyond --dir and --json.
OPTIONS = {
    "--config": {"help": "flat key=value config file"},
    "--backend": {"choices": ["witness-check", "snark"]},
    "--dataset": {"help": "CSV file"},
    "--uid": {"type": int},
    "--iteration": {"type": int},
    "--features": {"help": "comma-separated decimal features"},
    "--label": {"help": "decimal label"},
}

COMMANDS = [
    ("setup", cmd_setup, ("--config", "--backend")),
    ("init", cmd_init, ()),
    ("add", cmd_add, ("--dataset", "--uid", "--features", "--label")),
    ("delete", cmd_delete, ("--uid", "--dataset")),
    ("update", cmd_update, ()),
    ("verify-update", cmd_verify_update, ("--iteration",)),
    ("prove-unlearn", cmd_prove_unlearn, ("--uid",)),
    ("verify-unlearn", cmd_verify_unlearn, ("--uid", "--iteration", "--dataset")),
    ("audit-setup", cmd_audit_setup, ()),
    ("game", cmd_game, ()),
    ("bench", cmd_bench, ("--config", "--backend", "--dataset")),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearn",
        description="Auditable machine unlearning with verifiable retraining",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, options in COMMANDS:
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--dir", required=name != "bench", help="state directory")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        if name == "game":
            p.add_argument("--strategy", help="run a single builtin strategy")
            p.add_argument("--seeds", type=int, default=5)
            p.add_argument(
                "--negative-control",
                action="store_true",
                help="remove proof-system soundness; expect a strategy to win",
            )
        if name == "bench":
            p.add_argument("--sizes", help="comma-separated dataset sizes")
            p.add_argument("--counts-only", action="store_true",
                           help="stop after a witness-check setup, report constraint counts")
            p.add_argument("--split", default="0.8", help="train/test split ratio")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # argparse reads any integer: refuse what no uid or iteration is.
        if not 0 <= (getattr(args, "uid", None) or 0) <= MAX_UID:
            raise CliError(f"bad --uid {args.uid}: expected an integer from 0 to 2^64 - 1")
        if (getattr(args, "iteration", None) or 0) < 0:
            raise CliError(f"bad --iteration {args.iteration}: expected a non-negative integer")
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BackendUnavailable as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ProofSysError, EnvelopeError) as e:
        # ProofSysError: a config that no longer matches the stored circuit
        # (FingerprintMismatch), or a stored key the helper cannot parse.
        print(f"error: corrupt state: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CORRUPT


if __name__ == "__main__":
    sys.exit(main())
