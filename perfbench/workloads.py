"""The workloads: seeded inputs, the CLI harness, and the correctness
checks each run makes.

Load comes from one closed-loop client: one ``unlearn`` command at a time,
each issued after the previous one returned, as the state directory's
exclusive lock requires.  A session is a fixed sequence of commands drawn
from the seed: ``init``, then rounds of (add a CSV batch, delete earlier
points, update, verify the update, prove and verify unlearning of each
point deleted in the round).

Both workloads drive the shipped CLI.  A long-lived server calling the
``protocol`` API was tried and left out: on a shared 2-vCPU VM its update
and verify latencies ranged over 1.6-1.75x within five minutes, against
1.37x for ``unlearn setup`` commands run in between, and its run-to-run
spread exceeded the regression bound in most sets of runs.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from unlearn import cli, hashing, serialize, training
from unlearn.field import fx_encode
from unlearn.hashing import DataPoint

from tracing import Tracer, attribute_gadgets

# Features on the quarter grid in [-1, 1], as in unlearn.bench.
GRID = tuple(f"{i / 4:g}" for i in range(-4, 5))
BASE_OPTIONS = {"hash_rounds": "110", "backend": "witness-check"}
SETUPS = 3  # setup_s is the median of this many set-ups per run
COMMAND_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    options: dict
    batch: int  # points added per round
    deletes: int  # points deleted per round
    rounds: int  # rounds per session


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli-walkthrough",
            "The README walkthrough, one process per command: rebuilding both circuits, "
            "mostly fx_mul range bits, dominates every command, so it shows circuit caching.",
            {"kind": "linear", "arity": "1", "epochs": "10", "capacity": "8", "unlearn_capacity": "8"},
            batch=2,
            deletes=1,
            rounds=2,
        ),
        Workload(
            "cli-unlearn",
            "The same commands at one epoch and capacity 16: MiMC hashing is 80% of the "
            "circuits and fx_mul little, so it shows hashing changes and not fx_mul ones.",
            {"kind": "linear", "arity": "1", "epochs": "1", "capacity": "16", "unlearn_capacity": "16"},
            batch=8,
            deletes=1,
            rounds=2,
        ),
    )
}


@dataclass(frozen=True)
class Row:
    uid: int
    x: tuple[str, ...]
    y: str


@dataclass(frozen=True)
class Round:
    batch: tuple[Row, ...]
    deleted: tuple[Row, ...]


def plan_session(w: Workload, arity: int, seed: int, session: int) -> list[Round]:
    """Seeded inputs of one session.  Deleted points are drawn from those
    added so far, this round's batch included, so both capacities hold."""
    rng = random.Random(f"perfbench/{w.name}/{seed}/{session}")
    uids = iter(rng.sample(range(1, 2**32), w.rounds * w.batch))
    live: list[Row] = []
    rounds = []
    for _ in range(w.rounds):
        batch = tuple(
            Row(next(uids), tuple(rng.choice(GRID) for _ in range(arity)), rng.choice("01"))
            for _ in range(w.batch)
        )
        live += batch
        deleted = tuple(rng.sample(live, w.deletes))
        live = [r for r in live if r not in deleted]
        rounds.append(Round(batch, deleted))
    return rounds


def encode(row: Row, scale) -> DataPoint:
    return DataPoint(row.uid, tuple(fx_encode(v, scale) for v in row.x), fx_encode(row.y, scale))


def write_batch(path: Path, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    arity = len(rows[0].x)
    lines = ["uid," + ",".join(f"f{k + 1}" for k in range(arity)) + ",y"]
    lines += [f"{r.uid},{','.join(r.x)},{r.y}" for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def expected_commitment(config, plan: list[Round]) -> tuple[int, int, int]:
    """(h_m, h_D, h_U) recomputed from the generated points alone."""
    scale, cfg = config.train.scale, config.hash_cfg
    live: list[Row] = []
    unlearnt: list[Row] = []
    for rnd in plan:
        live = [r for r in live + list(rnd.batch) if r not in rnd.deleted]
        unlearnt += rnd.deleted
    points = tuple(encode(r, scale) for r in live)
    model = training.train_model(training.Dataset(points, config.train.arity), config.train)
    return (
        hashing.hash_model_weights(model.weights, cfg),
        hashing.hash_data([hashing.hash_data_point(p, cfg) for p in points], cfg),
        hashing.hash_unlearn([hashing.hash_data_point(encode(r, scale), cfg) for r in unlearnt], cfg),
    )


def flip_hex(value: str, modulus: int) -> str:
    """A different canonical field element of the same width."""
    v = int(value, 16)
    w = v ^ 1 if v ^ 1 < modulus else v ^ 2
    return f"{w:0{len(value)}x}"


def flip_public_input(envelope: dict, modulus: int) -> None:
    """Tampers with an update-proof envelope: the model proof's first
    public input.  The statement comparison rejects it."""
    inputs = envelope["model_proof"]["public_inputs"]
    inputs[0] = flip_hex(inputs[0], modulus)


def flip_private_wire(envelope: dict, modulus: int) -> None:
    """Tampers with an update-proof envelope: the first private wire of the
    model proof's witness, public inputs unchanged, so only checking the
    witness against the constraints can reject it."""
    blob = envelope["model_proof"]
    payload = json.loads(bytes.fromhex(blob["proof_bytes"]))
    wires = payload["wires"]
    k = 1 + len(blob["public_inputs"])  # wire 0 is the constant one
    wires[k] = f"{int(flip_hex(wires[k], modulus), 16):x}"
    blob["proof_bytes"] = json.dumps(payload, separators=(",", ":")).encode().hex()


class _Check:
    ok = True


class Recorder:
    """Latency samples by metric, and operations attempted and failed."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    @contextlib.contextmanager
    def op(self, kind: str, metric: str | None = None):
        check = _Check()
        self.attempted += 1
        span = self.tracer.op(kind) if self.tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                yield check
        except Exception as e:
            self.failures.append(f"{kind}: {type(e).__name__}: {e}")
            raise
        elapsed = perf_counter() - start
        if not check.ok:
            self.failures.append(f"{kind}: unexpected verdict")
        elif metric:
            self.samples[metric].append(elapsed)

    def round_mean(self, source: str, target: str, n: int) -> None:
        """Adds the mean of the last ``n`` samples of ``source`` to
        ``target``.  Add requests cost more than deletes, so the median of
        a mix of both jumps between the two kinds; the median over rounds
        of each round's mean does not."""
        self.samples[target].append(statistics.fmean(self.samples[source][-n:]))


class CliRunner:
    """Runs ``unlearn`` commands: a fresh interpreter per command, or
    ``cli.main`` in this process for the traced run."""

    def __init__(self, src: Path, in_process: bool):
        self.in_process = in_process
        self.tracer: Tracer | None = None
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def __call__(self, *argv) -> int:
        argv = [str(a) for a in argv]
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "unlearn.cli", *argv],
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                timeout=COMMAND_TIMEOUT_S,
            )
            return proc.returncode
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if self.tracer is None:
                return cli.main(argv)
            self.tracer.counts["cli.commands"] += 1
            with self.tracer.span("cli.main"):
                return cli.main(argv)


class CliHarness:
    def __init__(self, w: Workload, config, work: Path, rec: Recorder, run: CliRunner):
        self.config, self.work, self.rec, self.run = config, work, rec, run
        self.conf = work / "unlearn.conf"
        self.conf.write_text(
            "".join(f"{k} = {v}\n" for k, v in {**BASE_OPTIONS, **w.options}.items())
        )
        self.setup_dir: Path | None = None
        self.source: dict[int, Path] = {}  # uid -> the CSV file that added it

    def setup(self, k: int) -> None:
        d = self.work / f"setup{k}"
        with self.rec.op("setup", "setup_s") as check:
            check.ok = self.run("setup", "--dir", d, "--config", self.conf) == 0
        self.setup_dir = d

    def session(self, name: str, plan: list[Round]) -> serialize.StateDir:
        d = self.work / name
        shutil.copytree(self.setup_dir / "pub", d / "pub")
        rec, run = self.rec, self.run
        with rec.op("init") as check:
            check.ok = run("init", "--dir", d) == 0
        source = self.source
        for i, rnd in enumerate(plan, 1):
            csv = write_batch(self.work / f"{name}-inputs" / f"batch{i}.csv", rnd.batch)
            source.update((r.uid, csv) for r in rnd.batch)
            with rec.op("accept_add", "request_s") as check:
                check.ok = run("add", "--dir", d, "--dataset", csv) == 0
            for r in rnd.deleted:
                with rec.op("accept_delete", "request_s") as check:
                    check.ok = run("delete", "--dir", d, "--uid", r.uid) == 0
            rec.round_mean("request_s", "queue_s", 1 + len(rnd.deleted))
            with rec.op("update", "update_s") as check:
                check.ok = run("update", "--dir", d) == 0
            rec.samples["update_proof_bytes"].append(
                serialize.StateDir(d).update_proof_file(i).stat().st_size
            )
            with rec.op("verify_update", "verify_update_s") as check:
                check.ok = run("verify-update", "--dir", d, "--iteration", i) == 0
            for r in rnd.deleted:
                with rec.op("unlearn_claim", "unlearn_claim_s") as check:
                    check.ok = run("prove-unlearn", "--dir", d, "--uid", r.uid) == 0 and run(
                        "verify-unlearn", "--dir", d, "--uid", r.uid, "--iteration", i,
                        "--dataset", source[r.uid],
                    ) == 0
        return serialize.StateDir(d)

    def tamper(self, store: serialize.StateDir, plan: list[Round]) -> None:
        """A verifier's copy of the files with a public input of the first
        update flipped, a private witness wire of the second, and one node
        of a membership path."""
        t = serialize.StateDir(self.work / "tamper")
        for sub in ("pub", "commitments", "proofs"):
            shutil.copytree(store.root / sub, t.root / sub)
        modulus = self.config.train.scale.modulus
        row = plan[0].deleted[0]

        def edit(path, fn):
            obj = json.loads(path.read_text())
            fn(obj, modulus)
            path.write_text(json.dumps(obj))

        def flip_node(obj, modulus):
            obj["path"][0] = flip_hex(obj["path"][0], modulus)

        edit(t.update_proof_file(1), flip_public_input)
        edit(t.update_proof_file(2), flip_private_wire)
        edit(t.unlearn_proof_file(1, row.uid), flip_node)
        for kind, i in (("tamper_input", 1), ("tamper_wire", 2)):
            with self.rec.op(kind) as check:
                check.ok = self.run("verify-update", "--dir", t.root, "--iteration", i) == 1
        with self.rec.op("tamper_path") as check:
            check.ok = self.run(
                "verify-unlearn", "--dir", t.root, "--uid", row.uid, "--iteration", 1,
                "--dataset", self.source[row.uid],
            ) == 1


def check_commitment(rec: Recorder, config, store: serialize.StateDir, plan) -> None:
    with rec.op("commitment_check") as check:
        com = serialize.commitment_from_dict(
            serialize.read_json(store.commitment_file(len(plan))), config.train.scale
        )
        check.ok = (com.h_m, com.h_d, com.h_u) == expected_commitment(config, plan)


def cli_startup_s(src: Path, repeats: int = 3) -> float:
    """Median time to start an interpreter and import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import unlearn.cli"], env=env, check=True,
                       timeout=COMMAND_TIMEOUT_S)
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path, src: Path,
                 rec: Recorder):
    """Runs one workload into ``rec``.  Returns the per-layer metrics and
    the span accounting of a traced run, or empty results."""
    config = cli.build_protocol_config({**BASE_OPTIONS, **w.options})
    arity = config.train.arity
    runner = CliRunner(src, in_process=trace)
    harness = CliHarness(w, config, work, rec, runner)

    tracer = Tracer()

    @contextlib.contextmanager
    def traced():
        rec.tracer = runner.tracer = tracer
        try:
            with tracer.installed():
                yield
        finally:
            rec.tracer = runner.tracer = None

    def session(name, plan, with_trace=False):
        gc.collect()
        with traced() if with_trace else contextlib.nullcontext():
            start = perf_counter()
            store = harness.session(name, plan)
            elapsed = perf_counter() - start
        check_commitment(rec, config, store, plan)
        return store, elapsed

    if not trace:
        for k in range(SETUPS):
            harness.setup(k)
        n = 0
        while sum(rec.samples["session_s"]) < seconds:
            plan = plan_session(w, arity, seed, n)
            store, elapsed = session(f"session{n}", plan)
            rec.samples["session_s"].append(elapsed)
            if n == 0:
                harness.tamper(store, plan)
            n += 1
        return {}, None

    layers = {"cli.startup_s": cli_startup_s(src), **attribute_gadgets(config)}
    with traced():
        harness.setup(0)
    # The traced session runs first, so the overhead ratio also carries
    # any cost of the first session in the process.
    plan = plan_session(w, arity, seed, 0)
    _, traced_s = session("traced", plan, with_trace=True)
    store, untraced_s = session("untraced", plan)
    harness.tamper(store, plan)
    gap, outside, by_layer = tracer.accounting()
    layers.update(tracer.metrics())
    layers.update({
        "trace.session_s": traced_s,
        "trace.untraced_session_s": untraced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(tracer.spans),
    })
    with rec.op("span_accounting") as check:
        # Self times are differences of one clock: they add up to well
        # under a microsecond per operation unless spans nest wrongly.
        check.ok = gap < 1e-6 and outside == 0
    return layers, {
        "max_gap_s": gap,
        "spans_outside_operations": outside,
        "self_s_by_operation_and_layer": by_layer,
    }
