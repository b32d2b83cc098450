"""Operator command line: protocol driving, proof files, games, benchmarks.

State lives in a directory of versioned JSON envelopes (see ``serialize``):
``pub/`` holds the public parameters, ``commitments/`` and ``proofs/`` the
per-iteration outputs, and ``state.json`` the server state.  Files are the
wire format: a verifier needs only ``pub/``, the commitments, and the
proof files.

``pub/`` is written once, by ``setup``:

* ``params.json``: the protocol config and, for each circuit (model and
  data), its fingerprint and its constraint, wire and public-input counts;
* ``circuits/<fingerprint>.r1cs``: each circuit's canonical binary
  export, the bytes its fingerprint (SHA-256) is taken over: a header
  (magic, modulus, wire, public, row and coefficient counts), the
  coefficient table, then per matrix A, B, C the row term counts, wire
  ids and coefficient ids as little-endian u32 arrays (see ``r1cs``);
* ``setups/<backend>/<fingerprint>/``: the backend's setup artifacts.

Only ``setup``, ``update`` and ``audit-setup`` build circuits (``game``
also does, to prove, and ``bench`` runs setup, update and verify-update
in a temporary directory).  ``update`` builds each for its wire
values only and proves against the stored export, after checking its
SHA-256; a witness the stored rows refuse means the config no longer
matches the circuit ``setup`` compiled, and ``update`` exits 3 without
writing.  ``verify-update`` on the witness-check backend reads the stored
exports too; on the snark backend it needs only the verifying keys.
``audit-setup`` rebuilds both circuits from the stored config and checks
the stored fingerprints, sizes and exports, for anyone who wants to tie
``pub/`` to the config.

Each command accepts ``--dir``, ``--json`` and only the options it reads
(``COMMANDS``).  Exit codes: 0 success/accept, 1 reject (an
``audit-setup`` mismatch included), 2 usage error (an option the command
does not read, ``bench --config`` or ``--backend`` with a ``--dir`` that
holds parameters, or an unreadable ``--config`` or ``--dataset`` file
included), 3 corrupt state (a state directory that cannot be read, a
missing or altered circuit export, or a config that no longer matches
the stored circuit).
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

from .bench import DEFAULT_SIZES, bench_sizes
from .circuits import DataCircuit, ModelCircuit, ShapeMismatch, ShapeOverflow
from .field import ConfigError, FixedPointOverflow, ScaleConfig, fx_encode
from .game import builtin_strategies, run_suite
from .hashing import DataPoint, NotMemberError
from .ingest import ingest_csv, split_dataset
from .proofsys import BackendUnavailable, FingerprintMismatch, WitnessCheckBackend
from .protocol import (
    CorruptState,
    DuplicateAdd,
    ProtocolConfig,
    ReAddAfterDelete,
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
from .r1cs import fingerprint_of
from .serialize import (
    PARAMS_VERSION,
    UPDATE_PROOF_VERSION,
    VERSION,
    EnvelopeError,
    StateDir,
    atomic_write_json,
    circuit_record,
    commitment_from_dict,
    commitment_to_dict,
    read_json,
    unlearn_proof_from_dict,
    unlearn_proof_to_dict,
    update_proof_from_dict,
    update_proof_to_dict,
)
from .training import accuracy, default_init_values, train_model, TrainConfig

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
    "gamma": "65536",
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
        scale = ScaleConfig(gamma=int(opts["gamma"]))
        kind = opts["kind"]
        hidden = int(opts["hidden"])
        arity = int(opts["arity"])
        train = TrainConfig(
            kind=kind,
            arity=arity,
            hidden=hidden,
            epochs=int(opts["epochs"]),
            learning_rate=fx_encode(Fraction(opts["learning_rate"]), scale),
            init_values=default_init_values(kind, arity, hidden, scale),
            scale=scale,
        )
        return ProtocolConfig(
            train=train,
            capacity=int(opts["capacity"]),
            unlearn_capacity=int(opts["unlearn_capacity"]),
            backend=opts["backend"],
            hash_rounds=int(opts["hash_rounds"]),
        )
    except (ValueError, ConfigError) as e:
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


def load_state(store: StateDir, scale):
    try:
        return store.load_state(scale)
    except FileNotFoundError:
        raise CliError("no server state (run init first)")
    except (EnvelopeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        # A field of the wrong type raises TypeError.
        raise CliError(f"corrupt state: {e}", EXIT_CORRUPT)


def ingest_dataset(path: str, scale: ScaleConfig):
    """ingest_csv for a command's --dataset.  An unreadable file and bad
    input (a SchemaError or other ValueError, or a value too large to
    encode) are usage errors."""
    try:
        return ingest_csv(path, scale)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e.strerror}")
    except (ValueError, OverflowError) as e:
        raise CliError(f"cannot ingest {path}: {e}")


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
        store.setup_store.prune(
            pub.backend.name, {pub.model_relation.fingerprint, pub.data_relation.fingerprint}
        )
    emit(
        args,
        {
            "dir": str(store.root),
            "backend": config.backend,
            "model_fingerprint": pub.model_relation.fingerprint,
            "data_fingerprint": pub.data_relation.fingerprint,
            "model_constraints": pub.model_circuit.cs.stats().constraint_count,
            "data_constraints": pub.data_circuit.cs.stats().constraint_count,
        },
        f"setup complete in {store.root} (backend {config.backend})",
    )
    return EXIT_OK


def cmd_init(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    with dir_lock(store):
        state, com, marker = server_init(pub)
        atomic_write_json(store.commitment_file(0), commitment_to_dict(com, pub.scale))
        atomic_write_json(store.init_marker_file, {"version": VERSION, "marker": marker})
        store.save_state(state, pub.scale)
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
        state = load_state(store, pub.scale)
        if args.dataset:
            points = ingest_dataset(args.dataset, pub.scale).dataset.points
        else:
            points = (_point_from_args(args, pub),)
        try:
            state = queue_adds(state, points, pub)
        except (ReAddAfterDelete, DuplicateAdd, ValueError, FixedPointOverflow) as e:
            raise CliError(str(e), EXIT_REJECT)
        store.save_state(state, pub.scale)
    emit(args, {"queued_add": len(points)}, f"queued {len(points)} addition(s)")
    return EXIT_OK


def cmd_delete(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    if args.uid is None:
        raise CliError("delete needs --uid")
    with dir_lock(store):
        state = load_state(store, pub.scale)
        pool = list(state.dataset.points) + list(state.pending_add)
        point = next((d for d in pool if d.uid == args.uid), None)
        if point is None and args.dataset:
            ingested = ingest_dataset(args.dataset, pub.scale)
            point = next((d for d in ingested.dataset.points if d.uid == args.uid), None)
        if point is None:
            raise CliError(
                f"uid {args.uid} not found; pass --dataset with the point's row"
            )
        try:
            check_point(pub, point)
        except (FixedPointOverflow, ShapeMismatch) as e:
            # update could not hash it or no verifier would accept its proof.
            raise CliError(f"uid {args.uid} not queued: {e}", EXIT_REJECT)
        state = queue_delete(state, point)
        store.save_state(state, pub.scale)
    emit(args, {"queued_delete": args.uid}, f"queued deletion of uid {args.uid}")
    return EXIT_OK


def cmd_update(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    with dir_lock(store):
        state = load_state(store, pub.scale)
        try:
            state, model, com, proof = prove_update(state, pub)
        except (ShapeOverflow, FixedPointOverflow) as e:
            raise CliError(str(e), EXIT_REJECT)
        except CorruptState as e:
            raise CliError(f"corrupt state: {e}", EXIT_CORRUPT)
        i = state.iteration
        atomic_write_json(store.commitment_file(i), commitment_to_dict(com, pub.scale))
        atomic_write_json(store.update_proof_file(i), update_proof_to_dict(proof, pub.scale))
        # state.json last: it is the commit point for the update.
        store.save_state(state, pub.scale)
    emit(
        args,
        {
            "iteration": i,
            "dataset_size": len(state.dataset.points),
            "unlearnt_size": len(state.hashed_unlearnt),
            "commitment": commitment_to_dict(com, pub.scale),
        },
        f"iteration {i}: |D|={len(state.dataset.points)}, "
        f"|U|={len(state.hashed_unlearnt)}; proofs written",
    )
    return EXIT_OK


def cmd_verify_update(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    i = args.iteration
    if i is None:
        raise CliError("verify-update needs --iteration")
    try:
        if i == 0:
            com0 = commitment_from_dict(read_json(store.commitment_file(0)), pub.scale)
            marker = read_json(store.init_marker_file)["marker"]
            ok = verify_init(pub, com0, marker)
        else:
            com_prev = commitment_from_dict(
                read_json(store.commitment_file(i - 1)), pub.scale
            )
            com = commitment_from_dict(read_json(store.commitment_file(i)), pub.scale)
            proof = update_proof_from_dict(
                read_json(store.update_proof_file(i), UPDATE_PROOF_VERSION), pub.scale
            )
            ok = verify_update(pub, com_prev, com, proof)
    except FileNotFoundError as e:
        raise CliError(f"missing envelope: {e.filename}")
    except (EnvelopeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise CliError(f"corrupt envelope: {e}", EXIT_CORRUPT)
    emit(args, {"iteration": i, "accepted": ok},
         f"iteration {i}: {'accept' if ok else 'REJECT'}")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_prove_unlearn(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    if args.uid is None:
        raise CliError("prove-unlearn needs --uid")
    with dir_lock(store):
        state = load_state(store, pub.scale)
        point = next((d for d in state.last_deleted if d.uid == args.uid), None)
        if point is None and args.dataset:
            ingested = ingest_dataset(args.dataset, pub.scale)
            point = next((d for d in ingested.dataset.points if d.uid == args.uid), None)
        if point is None:
            raise CliError(
                f"uid {args.uid} is not among the last update's deletions; "
                "pass --dataset with the point's row"
            )
        try:
            proof = prove_unlearn(pub, state, point)
        except (NotMemberError, FixedPointOverflow, ShapeMismatch) as e:
            raise CliError(str(e), EXIT_REJECT)
        path = store.unlearn_proof_file(proof.iteration, args.uid)
        atomic_write_json(path, unlearn_proof_to_dict(proof, pub.scale))
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
    ingested = ingest_dataset(args.dataset, pub.scale)
    point = next((d for d in ingested.dataset.points if d.uid == args.uid), None)
    if point is None:
        raise CliError(f"uid {args.uid} not present in {args.dataset}")
    try:
        com = commitment_from_dict(
            read_json(store.commitment_file(args.iteration)), pub.scale
        )
        proof = unlearn_proof_from_dict(
            read_json(store.unlearn_proof_file(args.iteration, args.uid)), pub.scale
        )
    except FileNotFoundError as e:
        raise CliError(f"missing envelope: {e.filename}")
    except (EnvelopeError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise CliError(f"corrupt envelope: {e}", EXIT_CORRUPT)
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
    its params.json entry (fingerprint and size) and its stored export."""
    store = StateDir(args.dir)
    pub = load_pub(store)
    stored = read_json(store.params_file, PARAMS_VERSION)["circuits"]
    checks = {}
    for name, circuit in (("model", ModelCircuit), ("data", DataCircuit)):
        cs = circuit(pub.config).cs
        exported = cs.export()
        path = store.setup_store.circuit_file(stored[name]["fingerprint"])
        checks[name] = {
            "params": circuit_record(fingerprint_of(exported), cs) == stored[name],
            "export": path.is_file() and path.read_bytes() == exported,
        }
    failed = [f"{name} {what}" for name, c in checks.items() for what, ok in c.items() if not ok]
    emit(args, {"dir": str(store.root), "checks": checks, "accepted": not failed},
         "setup matches the config" if not failed else f"MISMATCH: {', '.join(failed)}")
    return EXIT_REJECT if failed else EXIT_OK


def cmd_game(args) -> int:
    store = StateDir(args.dir)
    pub = load_pub(store)
    if pub.config.capacity < 4:
        raise CliError("the game needs a capacity >= 4 setup")
    strategies = builtin_strategies()
    if args.strategy:
        strategies = [s for s in strategies if s.name == args.strategy]
        if not strategies:
            names = ", ".join(s.name for s in builtin_strategies())
            raise CliError(f"unknown strategy {args.strategy!r} (choose from {names})")
    if args.negative_control:
        pub = global_setup(pub.config, backend=WitnessCheckBackend(check=False),
                           setup_store=None)
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
    if args.dir and StateDir(args.dir).params_file.exists():
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
    entries = bench_sizes(sizes, config, counts_only=args.counts_only)
    payload = {"backend": config.backend, "entries": [e.to_dict() for e in entries]}

    if args.dataset:
        scale = config.train.scale
        ingested = ingest_dataset(args.dataset, scale)
        train_set, test_set = split_dataset(ingested.dataset, split)
        arity = ingested.dataset.arity
        train_cfg = dataclasses.replace(
            config.train,
            arity=arity,
            init_values=default_init_values(config.train.kind, arity, config.train.hidden, scale),
        )
        threshold = fx_encode(Fraction(1, 2), scale)
        try:
            model = train_model(train_set, train_cfg)
            payload["accuracy"] = {
                "train": float(accuracy(model, train_set, threshold, scale)),
                "test": float(accuracy(model, test_set, threshold, scale)),
                "split": split,
            }
        except FixedPointOverflow as e:
            raise CliError(f"cannot train on {args.dataset}: {e}", EXIT_REJECT)

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
    ("prove-unlearn", cmd_prove_unlearn, ("--uid", "--dataset")),
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
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except BackendUnavailable as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FingerprintMismatch, EnvelopeError) as e:
        print(f"error: corrupt state: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CORRUPT


if __name__ == "__main__":
    sys.exit(main())
