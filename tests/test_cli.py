import collections
import dataclasses
import hashlib
import json
import os
import re
import shlex
import shutil
import stat
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from unlearn import bench, circuits, cli, game, gadgets, proofsys, protocol, serialize, training
from unlearn.cli import CONFIG_DEFAULTS, main
from unlearn.field import ScaleConfig, fx_encode
from unlearn.hashing import DataPoint
from unlearn.ingest import ingest_csv
from unlearn.r1cs import ConstraintSystem
from unlearn.serialize import (
    PARAMS_VERSION,
    UPDATE_PROOF_VERSION,
    VERSION,
    StateDir,
    json_bytes,
    read_json,
    update_proof_from_dict,
    update_proof_to_dict,
)

CONF = """\
# reduced-round profile keeps the suite quick
kind = linear
arity = 1
epochs = 1
capacity = 8
unlearn_capacity = 8
hash_rounds = 4
"""

# The value bound on features and labels is [-2^B, 2^B) / gamma.
SCALE = ScaleConfig()
B = SCALE.value_bits
BEYOND = str((1 << B) // SCALE.gamma)  # the least value past the bound
OUT_OF_BOUND = f"a feature or label lies outside the {B}-bit value bound"

CSV = """\
uid,f1,y
1,0.5,1
2,-0.25,0
3,1.0,1
4,0.75,1
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "conf").write_text(CONF)
    (tmp_path / "pts.csv").write_text(CSV)
    return tmp_path


def run(workspace, *args):
    return main([*args])


@pytest.fixture
def initialized(workspace):
    d = str(workspace / "st")
    assert run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf")) == 0
    assert run(workspace, "init", "--dir", d) == 0
    return workspace / "st"


def snapshot(root):
    return {
        p.relative_to(root): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != ".lock"
    }


def test_full_protocol_flow(workspace):
    d = str(workspace / "st")
    conf = str(workspace / "conf")
    csv = str(workspace / "pts.csv")
    assert run(workspace, "setup", "--dir", d, "--config", conf) == 0
    assert run(workspace, "init", "--dir", d) == 0
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "0") == 0
    assert run(workspace, "add", "--dir", d, "--dataset", csv) == 0
    assert run(workspace, "update", "--dir", d) == 0
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 0
    assert run(workspace, "delete", "--dir", d, "--uid", "2") == 0
    assert run(workspace, "update", "--dir", d) == 0
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "2") == 0
    assert run(workspace, "prove-unlearn", "--dir", d, "--uid", "2") == 0
    assert (
        run(
            workspace,
            "verify-unlearn",
            "--dir", d,
            "--uid", "2",
            "--iteration", "2",
            "--dataset", csv,
        )
        == 0
    )


def test_setup_refuses_another_config_over_initialized_state(workspace, capsys):
    d = str(workspace / "st")
    conf, csv = str(workspace / "conf"), str(workspace / "pts.csv")
    for args in (("setup", "--config", conf), ("init",), ("add", "--dataset", csv), ("update",)):
        assert run(workspace, args[0], "--dir", d, *args[1:]) == 0
    other = workspace / "other.conf"
    other.write_text(CONF.replace("epochs = 1", "epochs = 2"))
    before = snapshot(workspace / "st")
    capsys.readouterr()
    for args in (("--config", str(other)), ("--config", conf, "--backend", "snark")):
        assert run(workspace, "setup", "--dir", d, *args) == 2
        assert "initialized under another config" in capsys.readouterr().err
    assert snapshot(workspace / "st") == before
    # The same config reuses the stored artifacts, and the chain still verifies.
    assert run(workspace, "setup", "--dir", d, "--config", conf) == 0
    assert snapshot(workspace / "st") == before
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 0
    # Before init, another config may replace the parameters.
    fresh = str(workspace / "fresh")
    assert run(workspace, "setup", "--dir", fresh, "--config", conf) == 0
    assert run(workspace, "setup", "--dir", fresh, "--config", str(other)) == 0


def test_init_refuses_an_initialized_directory(workspace, unlearnt, capsys):
    # A second init would reset the iteration to 0 and forget the deleted
    # uids: uid 2 could be added again, and the next update would
    # overwrite com_1.json.
    d = str(unlearnt)
    before = snapshot(unlearnt)
    capsys.readouterr()
    assert run(workspace, "init", "--dir", d) == 2
    assert "is already initialized" in capsys.readouterr().err
    assert snapshot(unlearnt) == before
    assert run(workspace, "add", "--dir", d, "--uid", "2", "--features", "-0.25",
               "--label", "0") == 1


def test_setup_removes_the_circuits_it_does_not_record(workspace):
    # epochs changes the model circuit and not the data circuit: the first
    # model's export goes, the shared data circuit's stays.  witness-check
    # has no setup keys, so it writes no setups/.
    d = workspace / "st"
    for epochs in (1, 2):
        conf = workspace / f"epochs{epochs}.conf"
        conf.write_text(CONF.replace("capacity = 8", "capacity = 4")
                        .replace("epochs = 1", f"epochs = {epochs}"))
        assert run(workspace, "setup", "--dir", str(d), "--config", str(conf)) == 0
    circuits = json.loads((d / "pub" / "params.json").read_text())["circuits"]
    recorded = {circuits["model"], circuits["data"]}
    assert len(recorded) == 2
    assert {p.stem for p in (d / "pub" / "circuits").iterdir()} == recorded
    assert not (d / "pub" / "setups").exists()
    assert run(workspace, "audit-setup", "--dir", str(d)) == 0


def test_setup_removes_the_keys_of_another_backend(workspace):
    # Snark keys in a witness-check directory, one set under a recorded
    # fingerprint and one under another: params.json names no backend
    # that reads them, so setup removes both.
    d, conf = workspace / "st", str(workspace / "conf")
    assert run(workspace, "setup", "--dir", str(d), "--config", conf) == 0
    recorded = json.loads((d / "pub" / "params.json").read_text())["circuits"]["model"]
    planted = [d / "pub" / "setups" / "snark" / fp / "vk.bin" for fp in (recorded, "ab" * 32)]
    for path in planted:
        path.parent.mkdir(parents=True)
        path.write_bytes(b"stale vk")
    assert run(workspace, "setup", "--dir", str(d), "--config", conf) == 0
    assert not any(path.exists() for path in planted)
    assert not [p for p in (d / "pub" / "setups").rglob("*") if p.is_file()]


def test_witness_check_commands_read_no_setups(workspace):
    d, csv = str(workspace / "st"), str(workspace / "pts.csv")
    assert run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf")) == 0
    shutil.rmtree(workspace / "st" / "pub" / "setups", ignore_errors=True)
    for args in (
        ("init",),
        ("add", "--dataset", csv),
        ("update",),
        ("verify-update", "--iteration", "1"),
        ("delete", "--uid", "2"),
        ("update",),
        ("verify-update", "--iteration", "2"),
        ("prove-unlearn", "--uid", "2"),
        ("verify-unlearn", "--uid", "2", "--iteration", "2", "--dataset", csv),
    ):
        assert run(workspace, args[0], "--dir", d, *args[1:]) == 0, args
    assert not (workspace / "st" / "pub" / "setups").exists()


def _fake_snark_keys(root) -> dict:
    """Switch the parameters in ``root`` to snark, with a fake vk.bin for
    each circuit and a pk.bin that is a directory, so reading it fails.
    Returns params.json's circuits."""
    params = root / "pub" / "params.json"
    obj = json.loads(params.read_text())
    params.write_text(json.dumps(obj | {"backend": "snark"}))
    for fp in obj["circuits"].values():
        keys = root / "pub" / "setups" / "snark" / fp
        keys.mkdir(parents=True)
        (keys / "vk.bin").write_bytes(b"fake vk " + fp.encode())
        (keys / "pk.bin").mkdir()
    return obj["circuits"]


def test_setup_reuses_stored_snark_keys_without_reading_them(workspace, monkeypatch):
    # No helper is needed: both circuits' keys are stored, so setup runs
    # no Groth16 setup, and it reads neither key file.
    d = workspace / "st"
    conf = str(workspace / "conf")
    assert run(workspace, "setup", "--dir", str(d), "--config", conf) == 0
    _fake_snark_keys(d)
    reads = []
    real = serialize.StoredKeys._read
    monkeypatch.setattr(serialize.StoredKeys, "_read",
                        lambda self, name: reads.append(name) or real(self, name))
    before = snapshot(d / "pub" / "setups")
    assert run(workspace, "setup", "--dir", str(d), "--config", conf, "--backend", "snark") == 0
    assert reads == []
    assert snapshot(d / "pub" / "setups") == before
    assert StateDir(d).load_public_params().backend.name == "snark"


def test_snark_commands_read_only_the_key_they_use(workspace, unlearnt, capsys, monkeypatch):
    # A witness-check chain switched to snark, with a fake vk.bin and a
    # pk.bin that cannot be read: no helper is needed for any of this.
    d, csv = str(unlearnt), str(workspace / "pts.csv")
    circuits = _fake_snark_keys(unlearnt)
    reads = []
    real = serialize.StoredKeys._read
    monkeypatch.setattr(serialize.StoredKeys, "_read",
                        lambda self, name: reads.append(name) or real(self, name))
    pub = StateDir(unlearnt).load_public_params()
    assert reads == []
    for rel in (pub.model_relation, pub.data_relation):
        assert rel.keys.verifying_params == b"fake vk " + rel.fingerprint.encode()
    reads.clear()
    for args in (
        ("add", "--uid", "9", "--features", "0.5", "--label", "1"),
        ("delete", "--uid", "3"),
        ("prove-unlearn", "--uid", "2"),
        ("verify-unlearn", "--uid", "2", "--iteration", "2", "--dataset", csv),
    ):
        assert run(workspace, args[0], "--dir", d, *args[1:]) == 0, args
    assert reads == []
    # update proves, so it reads the proving key: here it cannot.
    before = snapshot(unlearnt)
    capsys.readouterr()
    assert run(workspace, "update", "--dir", d) == 3
    assert "pk.bin: setup key unreadable" in capsys.readouterr().err
    assert reads == ["pk.bin"]
    assert snapshot(unlearnt) == before
    # verify-update reads the verifying key once the statement matches.
    (unlearnt / "pub" / "setups" / "snark" / circuits["model"] / "vk.bin").unlink()
    reads.clear()
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "2") == 3
    assert "vk.bin: setup key unreadable" in capsys.readouterr().err
    assert reads == ["vk.bin"]
    reads.clear()
    assert run(workspace, "init", "--dir", d) == 2
    assert reads == []


def test_single_point_add(workspace):
    d = str(workspace / "st")
    assert run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf")) == 0
    assert run(workspace, "init", "--dir", d) == 0
    assert (
        run(workspace, "add", "--dir", d, "--uid", "9", "--features", "0.5", "--label", "1")
        == 0
    )
    assert run(workspace, "update", "--dir", d) == 0
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 0


def test_tampered_proof_rejected(workspace, capsys):
    d = str(workspace / "st")
    test_full_protocol_flow(workspace)
    proof_file = workspace / "st" / "proofs" / "unlearn_2_2.json"
    payload = json.loads(proof_file.read_text())
    node = payload["path"][0]
    payload["path"][0] = node[:-1] + ("0" if node[-1] != "0" else "1")
    proof_file.write_text(json.dumps(payload))
    code = run(
        workspace,
        "verify-unlearn",
        "--dir", d,
        "--uid", "2",
        "--iteration", "2",
        "--dataset", str(workspace / "pts.csv"),
    )
    assert code == 1
    assert "path mismatch" in capsys.readouterr().out


def test_duplicate_add_rejected(workspace):
    d = str(workspace / "st")
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    run(workspace, "init", "--dir", d)
    run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv"))
    assert run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv")) == 1


def test_usage_errors(workspace, capsys):
    d = str(workspace / "st")
    # Missing state directory counts as usage, not a crash.
    assert run(workspace, "init", "--dir", d) == 2
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    run(workspace, "init", "--dir", d)
    assert run(workspace, "delete", "--dir", d) == 2  # no --uid
    assert run(workspace, "verify-update", "--dir", d) == 2  # no --iteration
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--dir", d])
    assert exc.value.code == 2


@pytest.mark.parametrize("uid", ["-1", str(2**64)])
def test_add_refuses_a_uid_outside_64_bits(workspace, initialized, capsys, uid):
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "add", "--dir", str(initialized), "--uid", uid, "--features", "0.5",
               "--label", "1") == 2
    err = capsys.readouterr().err
    assert f"error: bad --uid {uid}: " in err and "--features" not in err
    assert snapshot(initialized) == before


@pytest.mark.parametrize(
    "command", [("verify-update",), ("verify-unlearn", "--uid", "2", "--dataset", "pts.csv")]
)
def test_a_negative_iteration_is_a_usage_error(workspace, initialized, capsys, command):
    # Refused as the option it is, not as a missing com_-1.json or com_-2.json.
    capsys.readouterr()
    name, *rest = command
    assert run(workspace, name, "--dir", str(initialized), "--iteration", "-1", *rest) == 2
    err = capsys.readouterr().err
    assert "error: bad --iteration -1: " in err and "com_" not in err


def test_unknown_config_key(workspace, capsys):
    bad = workspace / "bad.conf"
    bad.write_text("kind = linear\nturbo = yes\n")
    assert run(workspace, "setup", "--dir", str(workspace / "st"), "--config", str(bad)) == 2
    assert "turbo" in capsys.readouterr().err


def test_gamma_must_be_a_power_of_two(workspace, capsys):
    # gamma is fixed at 2^16: a config that sets it, even to a power of
    # two, names a key that does not exist.
    conf, d = workspace / "decimal.conf", workspace / "st"
    for gamma in ("100000", "65536"):
        conf.write_text(CONF + f"gamma = {gamma}\n")
        assert run(workspace, "setup", "--dir", str(d), "--config", str(conf)) == 2
        assert "error: unknown config keys: gamma" in capsys.readouterr().err
        assert not d.exists()


@pytest.mark.parametrize(
    "line,reason",
    [
        ("arity = -1", "arity must not be negative"),
        ("learning_rate = 1/0", "bad configuration: "),
        ("learning_rate = 1e80", "exceeds the fixed-point headroom"),
        ("epochs = ten", "bad configuration: "),
    ],
    ids=["negative-arity", "zero-denominator", "too-large", "not-a-number"],
)
def test_malformed_config_values_are_usage_errors(workspace, capsys, line, reason):
    key = line.split(" = ")[0]
    conf, d = workspace / "bad.conf", workspace / "st"
    kept = [row for row in CONF.splitlines() if not row.startswith(key)]
    conf.write_text("\n".join([*kept, line]) + "\n")
    capsys.readouterr()
    assert run(workspace, "setup", "--dir", str(d), "--config", str(conf)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration: ") and reason in err
    assert not d.exists()


def test_nn_config_must_name_its_hidden_neurons(workspace, capsys):
    conf, d = workspace / "nn.conf", workspace / "st"
    conf.write_text(CONF.replace("kind = linear", "kind = nn"))
    assert run(workspace, "setup", "--dir", str(d), "--config", str(conf)) == 2
    assert "kind = nn needs a hidden key (2 or 4)" in capsys.readouterr().err
    assert not d.exists()
    # A hidden count the model does not support is still refused as such.
    conf.write_text(CONF.replace("kind = linear", "kind = nn\nhidden = 3"))
    assert run(workspace, "setup", "--dir", str(d), "--config", str(conf)) == 2
    assert "NN models support 2 or 4 hidden neurons" in capsys.readouterr().err


def test_corrupt_state_detected(workspace):
    d = str(workspace / "st")
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    run(workspace, "init", "--dir", d)
    state = workspace / "st" / "state.json"
    state.write_text("{not json")
    assert run(workspace, "update", "--dir", d) == 3
    # An unreadable state file is corrupt state too, unlike an input file.
    state.unlink()
    state.mkdir()
    assert run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv")) == 3


def test_missing_config_is_a_usage_error(workspace, capsys):
    d = workspace / "st"
    missing = workspace / "nosuch.conf"
    assert run(workspace, "setup", "--dir", str(d), "--config", str(missing)) == 2
    assert f"error: cannot read {missing}: " in capsys.readouterr().err
    assert not d.exists()


def test_replay_reproduces_identical_envelopes(workspace, tmp_path):
    conf = str(workspace / "conf")
    csv = str(workspace / "pts.csv")

    def transcript(dirname):
        d = str(tmp_path / dirname)
        for args in (
            ("setup", "--dir", d, "--config", conf),
            ("init", "--dir", d),
            ("add", "--dir", d, "--dataset", csv),
            ("update", "--dir", d),
            ("delete", "--dir", d, "--uid", "3"),
            ("update", "--dir", d),
        ):
            assert main(list(args)) == 0
        files = {}
        for sub in ("commitments", "proofs"):
            for p in sorted((tmp_path / dirname / sub).glob("*.json")):
                files[f"{sub}/{p.name}"] = p.read_bytes()
        return files

    assert transcript("a") == transcript("b")


def test_crash_leaves_previous_state_intact(workspace, monkeypatch):
    d = str(workspace / "st")
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    run(workspace, "init", "--dir", d)
    run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv"))
    state_before = (workspace / "st" / "state.json").read_bytes()

    real_replace = os.replace
    calls = {"n": 0}

    def dying_replace(src, dst):
        # state.json is written last; kill the command just before it.
        if str(dst).endswith("state.json"):
            calls["n"] += 1
            raise RuntimeError("injected crash")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(RuntimeError):
        main(["update", "--dir", d])
    monkeypatch.undo()
    assert calls["n"] == 1
    assert (workspace / "st" / "state.json").read_bytes() == state_before
    # The interrupted update replays cleanly.
    assert run(workspace, "update", "--dir", d) == 0
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 0


def test_killed_init_leaves_no_state_and_replays(workspace, monkeypatch):
    d = str(workspace / "st")
    store = StateDir(d)
    assert run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf")) == 0
    real_replace = os.replace

    def dying_replace(src, dst):
        # state.json is written last; kill the command just before it.
        if str(dst).endswith("state.json"):
            raise RuntimeError("injected crash")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", dying_replace)
    with pytest.raises(RuntimeError):
        main(["init", "--dir", d])
    monkeypatch.undo()
    assert not store.state_file.exists()
    written = {p: p.read_bytes() for p in (store.commitment_file(0), store.update_proof_file(0))}
    # The interrupted init replays cleanly and writes the same files.
    assert run(workspace, "init", "--dir", d) == 0
    assert {p: p.read_bytes() for p in written} == written
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "0") == 0


def test_lock_excludes_concurrent_writers(workspace):
    import fcntl

    d = str(workspace / "st")
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    run(workspace, "init", "--dir", d)
    with open(workspace / "st" / ".lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        assert run(workspace, "update", "--dir", d) == 3


def test_game_command(workspace, capsys):
    d = str(workspace / "st")
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    capsys.readouterr()
    assert run(workspace, "game", "--dir", d, "--seeds", "2", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["wins"] == 0
    assert {r["strategy"] for r in payload["reports"]} >= {"HonestServer"}
    assert all(
        set(r) == {"strategy", "seed", "verdict", "failing_check"}
        for r in payload["reports"]
    )
    assert (
        run(workspace, "game", "--dir", d, "--seeds", "1", "--negative-control") == 0
    )


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_game_without_seeds_is_a_usage_error(workspace, capsys, seeds):
    # No seed runs no strategy: a verdict from nothing would pass.
    d = str(workspace / "st")
    run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"))
    capsys.readouterr()
    for control in ((), ("--negative-control",)):
        assert run(workspace, "game", "--dir", d, "--seeds", seeds, *control) == 2
        captured = capsys.readouterr()
        assert f"bad --seeds {seeds}" in captured.err and captured.out == ""


def test_bench_counts_scale_linearly(workspace, capsys):
    conf = str(workspace / "conf")
    capsys.readouterr()
    code = run(
        workspace,
        "bench",
        "--config", conf,
        "--sizes", "4,8,16",
        "--counts-only",
        "--json",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    counts = [e["model_constraints"] for e in payload["entries"]]
    assert 1.8 <= counts[1] / counts[0] <= 2.2
    assert 1.8 <= counts[2] / counts[1] <= 2.2


def test_bench_reports_wires_and_terms_of_both_circuits(workspace, capsys):
    capsys.readouterr()
    assert run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "3",
               "--counts-only", "--json") == 0
    [entry] = json.loads(capsys.readouterr().out)["entries"]
    config = dataclasses.replace(
        cli.build_protocol_config(cli.parse_config_file(workspace / "conf")),
        capacity=3, unlearn_capacity=1,
    )
    for name, circuit in (("model", circuits.ModelCircuit), ("data", circuits.DataCircuit)):
        cs = circuit(config).cs
        stats = cs.stats()
        assert entry[f"{name}_constraints"] == stats.constraint_count
        assert entry[f"{name}_private_wires"] == stats.private_count
        assert entry[f"{name}_terms"] == stats.term_count
        assert entry[f"{name}_free_wires"] == len(cs.free_wires())
    # Each model slot's presence, uid, feature and label.
    assert entry["model_free_wires"] == 3 * 4
    assert entry["timings"] == {}


def test_setup_reports_the_free_wires_of_both_circuits(workspace, capsys):
    d = str(workspace / "st")
    capsys.readouterr()
    assert run(workspace, "setup", "--dir", d, "--config", str(workspace / "conf"), "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    pub = cli.load_pub(StateDir(d))
    assert payload["model_free_wires"] == len(pub.model_relation.circuit.free_wires()) == 8 * 4
    # The data circuit's presence bits, digests and previous bits, and one
    # disjointness inverse.
    assert payload["data_free_wires"] == len(pub.data_relation.circuit.free_wires()) == 5 * 8 + 1


def test_bench_reports_the_update_proof_size(workspace, capsys):
    capsys.readouterr()
    assert run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "4,8",
               "--json") == 0
    small, large = json.loads(capsys.readouterr().out)["entries"]
    # Free wires only: far below 32 bytes a wire for the whole witness.
    for entry in (small, large):
        wires = entry["model_private_wires"] + entry["data_private_wires"]
        assert 0 < entry["update_proof_bytes"] < 32 * wires
    assert small["update_proof_bytes"] < large["update_proof_bytes"]
    assert run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "4",
               "--counts-only", "--json") == 0
    assert json.loads(capsys.readouterr().out)["entries"][0]["update_proof_bytes"] is None


def test_bench_exits_1_when_an_honest_proof_is_rejected(workspace, capsys, monkeypatch):
    monkeypatch.setattr(bench, "verify_update", lambda *args: False)
    capsys.readouterr()
    code = run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "4",
               "--json")
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["entries"][0]["timings"]["verified"] == 0.0
    assert "did not verify" in captured.err


def test_bench_accuracy_report(workspace, capsys):
    csv = workspace / "wide.csv"
    rows = ["f,y"] + [f"{(i % 8 - 4) / 4},{int(i % 8 >= 4)}" for i in range(20)]
    csv.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    code = run(
        workspace,
        "bench",
        "--config", str(workspace / "conf"),
        "--sizes", "4",
        "--counts-only",
        "--dataset", str(csv),
        "--json",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["accuracy"]["train"] <= 1.0
    assert payload["accuracy"]["split"] == 0.8
    # Training that crosses the value bound is reported, not a traceback.
    csv.write_text("uid,f,y\n1,5000,1\n2,10000,1\n3,0.5,0\n")
    code = run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "4",
               "--counts-only", "--dataset", str(csv))
    assert code == 1
    assert "cannot train on" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["add", "delete", "prove-unlearn", "verify-unlearn"])
@pytest.mark.parametrize(
    "content,named",
    [(None, None), ("uid,f1,y\n5,1e300,1\n", None), ("uid,f1,y\n5,0.5\n", None),
     ("uid,f1\n5,0.5\n", None), ("uid,f1,f1,y\n5,0.5,-0.25,1\n", None),
     # A numeric column's one bad cell is named, not taken for a category.
     *((f"uid,f1,y\n5,0.5,1\n6,{cell},0\n", f"column 'f1': cell {cell!r} is not numeric")
       for cell in ("nan", "inf", "0.5x"))],
    ids=["missing", "unencodable", "ragged", "no-label", "duplicate-column",
         "nan-cell", "inf-cell", "bad-cell"],
)
def test_bad_csv_is_a_usage_error(workspace, initialized, capsys, command, content, named):
    bad = workspace / "bad.csv"
    if content is not None:
        bad.write_text(content)
    before = snapshot(initialized)
    args = [command, "--dir", str(initialized), "--dataset", str(bad), "--uid", "5"]
    if command == "verify-unlearn":
        args += ["--iteration", "0"]
    capsys.readouterr()
    assert run(workspace, *args) == 2
    verb = "read" if content is None else "ingest"
    err = capsys.readouterr().err
    assert f"error: cannot {verb} {bad}: {named or ''}" in err
    assert snapshot(initialized) == before


def test_a_byte_order_mark_keeps_the_uid_column(workspace, initialized, capsys):
    # Behind a UTF-8 byte-order mark the header's first name is still
    # "uid": the point keeps uid 7 and one feature.
    csv = workspace / "bom.csv"
    csv.write_bytes(b"\xef\xbb\xbfuid,f1,y\n7,0.5,1\n")
    assert run(workspace, "add", "--dir", str(initialized), "--dataset", str(csv)) == 0
    state = StateDir(initialized).load_state()
    assert state.pending_add == (DataPoint(7, (fx_encode(0.5, SCALE),), fx_encode(1, SCALE)),)


@pytest.mark.parametrize(
    "header,refused",
    [
        ("uid,y,label", "2 label columns: 'y', 'label'"),
        ("uid,UID,y", "2 uid columns: 'uid', 'UID'"),
    ],
    ids=["two-labels", "two-uids"],
)
def test_a_second_label_or_uid_column_is_a_usage_error(
    workspace, initialized, capsys, header, refused
):
    # Either second column would otherwise be ingested as a feature.
    bad = workspace / "bad.csv"
    bad.write_text(f"{header}\n1,1,0\n")
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "add", "--dir", str(initialized), "--dataset", str(bad)) == 2
    assert f"error: cannot ingest {bad}: {refused}" in capsys.readouterr().err
    assert snapshot(initialized) == before


def test_categorical_columns_are_refused_outside_bench(workspace, capsys):
    # A category is coded by where it first appears in its file, so the
    # one-row file of uid 2 would code "blue" as 0 and the batch as 1: its
    # digest would differ and verify-unlearn would reject.
    conf = workspace / "arity2.conf"
    conf.write_text(CONF.replace("arity = 1", "arity = 2"))
    d = workspace / "st"
    assert run(workspace, "setup", "--dir", str(d), "--config", str(conf)) == 0
    assert run(workspace, "init", "--dir", str(d)) == 0
    batch, row = workspace / "colors.csv", workspace / "row.csv"
    batch.write_text("uid,f1,color,y\n1,0.5,red,1\n2,-0.25,blue,0\n3,1.0,red,1\n")
    row.write_text("uid,f1,color,y\n2,-0.25,blue,0\n")
    before = snapshot(d)
    for args, path in (
        (("add", "--dataset", batch), batch),
        (("delete", "--uid", "2", "--dataset", row), row),
        (("prove-unlearn", "--uid", "2", "--dataset", row), row),
        (("verify-unlearn", "--uid", "2", "--iteration", "0", "--dataset", row), row),
    ):
        capsys.readouterr()
        assert run(workspace, args[0], "--dir", str(d), *map(str, args[1:])) == 2, args
        assert f"error: cannot ingest {path}: column 'color' is categorical" in (
            capsys.readouterr().err
        )
    assert snapshot(d) == before
    # bench's accuracy report reads one file, so it keeps the coding.
    assert run(workspace, "bench", "--config", str(conf), "--sizes", "4", "--counts-only",
               "--dataset", str(batch)) == 0


def test_add_beyond_value_bound_rejected(workspace, initialized, capsys):
    # BEYOND encodes, but lies outside the value bound.
    d = str(initialized)
    big = workspace / "big.csv"
    big.write_text(f"uid,f1,y\n1,0.5,1\n2,{BEYOND},1\n")
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "add", "--dir", d, "--dataset", str(big)) == 1
    assert "uid 2 not admitted" in capsys.readouterr().err
    assert run(workspace, "add", "--dir", d, "--uid", "3", "--features", BEYOND,
               "--label", "1") == 1
    assert "uid 3 not admitted" in capsys.readouterr().err
    assert snapshot(initialized) == before
    # A value too large to encode at all is bad input.
    assert run(workspace, "add", "--dir", d, "--uid", "3", "--features", "1e300",
               "--label", "1") == 2
    assert snapshot(initialized) == before


def test_add_refuses_a_reserved_digest_and_writes_nothing(workspace, initialized, capsys,
                                                         monkeypatch):
    # A point whose digest is the data circuit's absent-slot tag (the
    # digest forced here) would make every later update unprovable.
    d = str(initialized)
    digest = protocol.hash_data_point
    monkeypatch.setattr(
        protocol, "hash_data_point",
        lambda p, cfg: circuits.ABSENT_TAGS[1] if p.uid == 2 else digest(p, cfg),
    )
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv")) == 1
    assert "uid 2 not admitted" in capsys.readouterr().err
    assert snapshot(initialized) == before


def test_update_beyond_value_bound_writes_nothing(workspace, initialized, capsys):
    # A pending batch whose training overflows, as in a state written
    # before admission checked the bound.
    store, scale = StateDir(initialized), ScaleConfig()
    state = store.load_state()
    batch = tuple(
        DataPoint(uid, (fx_encode(x, scale),), fx_encode(1, scale))
        for uid, x in ((4, 5000), (5, 10000))
    )
    store.save_state(dataclasses.replace(state, pending_add=batch))
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "update", "--dir", str(initialized)) == 1
    assert "uid 5, epoch 1" in capsys.readouterr().err
    assert snapshot(initialized) == before


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "row,reason",
    [
        (f"uid,f1,y\n2,{BEYOND},0\n", OUT_OF_BOUND),
        # uid 2 is (-0.25, 0): this arity-2 row, its label at the bound's
        # low end, packs into the same limb.
        (f"uid,f1,f2,y\n2,-0.25,0,-{BEYOND}\n", "the point has 2 features, the setup 1"),
    ],
    ids=["beyond-bound", "other-arity"],
)
def test_verify_unlearn_of_a_row_that_is_no_point_rejects(workspace, unlearnt, capsys,
                                                          row, reason, as_json):
    # Such a row was never unlearnt: a REJECT that names why, not a
    # traceback, and not an accept through a digest of another arity.
    bad = workspace / "bad.csv"
    bad.write_text(row)
    args = [*VERIFY_UNLEARN[:-1], str(bad), "--dir", str(unlearnt)] + ["--json"] * as_json
    capsys.readouterr()
    assert run(workspace, *args) == 1
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out) == {"iteration": 2, "uid": 2, "accepted": False, "reason": reason}
    else:
        assert f"REJECT ({reason})" in out


@pytest.mark.parametrize("command", ["delete", "prove-unlearn"])
@pytest.mark.parametrize(
    "row,reason",
    [
        (f"uid,f1,y\n9,0.5,{BEYOND}\n", OUT_OF_BOUND),
        ("uid,f1,f2,y\n9,0.5,0.25,1\n", "the point has 2 features, the setup 1"),
    ],
    ids=["beyond-bound", "other-arity"],
)
def test_a_row_that_is_no_point_is_refused(workspace, initialized, capsys, command, row,
                                           reason):
    # update could never hash the first, so queueing it would stick every
    # update; the second would take an unlearnt slot that verify-unlearn
    # can never accept.  Neither has an unlearning proof.
    bad = workspace / "bad.csv"
    bad.write_text(row)
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, command, "--dir", str(initialized), "--uid", "9",
               "--dataset", str(bad)) == 1
    assert reason in capsys.readouterr().err
    assert snapshot(initialized) == before


@pytest.mark.parametrize("over", ["points", "unlearnt"])
def test_update_beyond_capacity_writes_nothing(workspace, initialized, capsys, over):
    # Pending requests no circuit of this setup can hold (capacity 8 each),
    # as in a state written by hand: the circuits refuse them.
    store = StateDir(initialized)
    state = store.load_state()
    batch = tuple(DataPoint(uid, (0,), 0) for uid in range(1, 10))
    pending = {"points": "pending_add", "unlearnt": "pending_delete"}[over]
    store.save_state(dataclasses.replace(state, **{pending: batch}))
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "update", "--dir", str(initialized)) == 1
    assert "exceed the compiled capacity 8" in capsys.readouterr().err
    assert snapshot(initialized) == before


def test_an_add_past_the_capacity_is_refused(workspace, initialized, capsys):
    # A ninth point at capacity 8 would leave every later update unable to
    # prove: add refuses it and writes nothing.
    d = str(initialized)
    eight = workspace / "eight.csv"
    eight.write_text("uid,f1,y\n" + "".join(f"{uid},0.25,1\n" for uid in range(1, 9)))
    assert run(workspace, "add", "--dir", d, "--dataset", str(eight)) == 0
    before = snapshot(initialized)
    capsys.readouterr()
    ninth = ("--uid", "9", "--features", "0.5", "--label", "0")
    assert run(workspace, "add", "--dir", d, *ninth) == 1
    assert ("error: 9 points at the next update would exceed the compiled capacity 8"
            in capsys.readouterr().err)
    assert snapshot(initialized) == before
    # A queued deletion frees its slot at the next update.
    assert run(workspace, "delete", "--dir", d, "--uid", "1") == 0
    assert run(workspace, "add", "--dir", d, *ninth) == 0
    assert run(workspace, "update", "--dir", d) == 0
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 0


def test_a_batch_past_the_capacity_is_refused_before_training(workspace, initialized, capsys,
                                                              monkeypatch):
    # 200 rows at capacity 8: add counts the would-be batch first, so it
    # exits 1 without one training run of the 200 points.
    many = workspace / "many.csv"
    many.write_text("uid,f1,y\n" + "".join(f"{uid},0.25,1\n" for uid in range(1, 201)))
    calls = []
    train_model = protocol.train_model
    monkeypatch.setattr(protocol, "train_model", lambda *a: calls.append(a) or train_model(*a))
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "add", "--dir", str(initialized), "--dataset", str(many)) == 1
    assert ("error: 200 points at the next update would exceed the compiled capacity 8"
            in capsys.readouterr().err)
    assert calls == []
    assert snapshot(initialized) == before


def test_a_delete_past_the_unlearn_capacity_is_refused(workspace, capsys):
    # With room for 2 unlearnt digests a third delete was queued, and every
    # later update exited 1, those of later additions too.
    conf = workspace / "narrow.conf"
    conf.write_text(CONF.replace("unlearn_capacity = 8", "unlearn_capacity = 2"))
    root = workspace / "narrow"
    d, csv = str(root), str(workspace / "pts.csv")
    for args in (("setup", "--config", str(conf)), ("init",), ("add", "--dataset", csv),
                 ("update",), ("delete", "--uid", "1"), ("delete", "--uid", "2")):
        assert run(workspace, args[0], "--dir", d, *args[1:]) == 0
    before = snapshot(root)
    capsys.readouterr()
    assert run(workspace, "delete", "--dir", d, "--uid", "3") == 1
    assert ("error: uid 3 not queued: 3 unlearnt digests at the next update would exceed "
            "the compiled capacity 2") in capsys.readouterr().err
    assert snapshot(root) == before
    # Deleting a queued point again adds no digest.
    assert run(workspace, "delete", "--dir", d, "--uid", "2") == 0
    assert run(workspace, "update", "--dir", d) == 0
    # The unlearnt set is full, and updates of later additions still prove.
    assert run(workspace, "delete", "--dir", d, "--uid", "3") == 1
    assert run(workspace, "add", "--dir", d, "--uid", "5", "--features", "0.25",
               "--label", "0") == 0
    assert run(workspace, "update", "--dir", d) == 0
    for i in ("1", "2", "3"):
        assert run(workspace, "verify-update", "--dir", d, "--iteration", i) == 0


def test_update_with_mismatched_unlearnt_root_writes_nothing(workspace, initialized, capsys):
    d = str(initialized)
    assert run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv")) == 0
    assert run(workspace, "delete", "--dir", d, "--uid", "2") == 0
    store = StateDir(initialized)
    state = store.load_state()
    store.save_state(dataclasses.replace(state, unlearnt_root=state.unlearnt_root + 1))
    before = snapshot(initialized)
    capsys.readouterr()
    assert run(workspace, "update", "--dir", d) == 3
    assert "corrupt state" in capsys.readouterr().err
    assert snapshot(initialized) == before


def test_update_of_a_batch_that_meets_the_unlearnt_set_writes_nothing(workspace, unlearnt,
                                                                        capsys):
    # A state edited by hand to queue again the point iteration 2 deleted:
    # no data-circuit witness exists, so update exits 3 and writes nothing.
    state = unlearnt / "state.json"
    obj = json.loads(state.read_text())
    state.write_text(json.dumps(obj | {"pending_add": obj["last_deleted"]}))
    before = snapshot(unlearnt)
    capsys.readouterr()
    assert run(workspace, "update", "--dir", str(unlearnt)) == 3
    assert ("error: corrupt state: training and unlearnt sets intersect"
            in capsys.readouterr().err)
    assert snapshot(unlearnt) == before
    store = StateDir(unlearnt)
    assert not store.commitment_file(3).exists() and not store.update_proof_file(3).exists()


# SHA-256 of the commitments and state that a session of CONF (add
# pts.csv, update, delete uid 2, update) wrote while every envelope kind
# was at version 8, update proofs included.  Only update proofs and
# params.json changed since, so these files come out byte for byte the
# same.
VERSION_8_FILES = {
    "commitments/com_0.json": "254721afc9ead9f61c14383033c2dfa429de79a24b9e5e1bf5a62001fee3b23e",
    "commitments/com_1.json": "46e7c347ef3d5185d1a0082a772fe751e4d69aab02b4c495a92fa48efda8aeb7",
    "commitments/com_2.json": "8ce747ff3bfe7652dc371de293ee03680fa2e172871478f0524f3e98b4e83d66",
    "state.json": "e4d8d0faa69d3de5bd55b2fd211ae41b1ab82245f5025fa5873780bc7c22ff59",
}
# SHA-256 of the other envelopes the same session writes, with the
# unlearning proof of uid 2 after it: update proofs at version 13,
# params.json at 14.  A change to the rows, their order, the hash or a
# format changes some of them; it bumps that kind's version and re-pins.
CURRENT_FILES = {
    "proofs/update_0.json": "1ef47f71c1e2fcc52962f572e6ea0ebccbd5f9c0afa8c48e12114a31b9fb301d",
    "proofs/update_1.json": "28b9df335ad274f81ef5ecd2bac8821f7ecac8d98a71aa5a909c20fe71d71e9b",
    "proofs/update_2.json": "692ad3cc6a574f324e52d5e469bb44115c50d21ce6d0a7f0f7940fe62effabe3",
    "proofs/unlearn_2_2.json": "1f30502291a3c9a6a2b3edbb236b0254f7d5cc2511ccc6ef4ed7bac438cb041a",
    "pub/params.json": "f674ae94c1d4447207522d3bcf68f2efdf837a0b98f8a46becda973420230d17",
}


def test_a_key_the_helper_cannot_parse_is_corrupt_state(workspace, updated, capsys,
                                                       monkeypatch):
    # The helper exits 2 on a verifying key it cannot deserialize; that is
    # corrupt state (exit 3), not a traceback read as a reject.
    _fake_snark_keys(updated)
    monkeypatch.setattr(proofsys, "find_helper", lambda: "unlearn-groth16")
    # proofsys imports subprocess only where the helper runs.
    monkeypatch.setattr(subprocess, "run", lambda argv, **_: subprocess.CompletedProcess(
        argv, 2, "", "error: bad verifying key: SerializationError"))
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 3
    assert ("error: corrupt state: groth16 helper error: error: bad verifying key"
            in capsys.readouterr().err)


def test_envelopes_of_unchanged_kinds_keep_their_bytes(workspace, capsys):
    d = workspace / "st"
    conf, csv = str(workspace / "conf"), str(workspace / "pts.csv")
    for args in (("setup", "--config", conf), ("init",), ("add", "--dataset", csv), ("update",),
                 ("delete", "--uid", "2"), ("update",), ("prove-unlearn", "--uid", "2")):
        assert run(workspace, args[0], "--dir", str(d), *args[1:]) == 0
    for name, digest in (VERSION_8_FILES | CURRENT_FILES).items():
        assert hashlib.sha256((d / name).read_bytes()).hexdigest() == digest, name
    assert json.loads((d / "proofs/update_0.json").read_text())["version"] == VERSION == 8
    assert json.loads((d / "pub/params.json").read_text())["version"] == PARAMS_VERSION == 14
    for i in range(3):
        assert run(workspace, "verify-update", "--dir", str(d), "--iteration", str(i)) == 0
    # bench's update_proof_bytes is the length of these bytes.
    store, scale = StateDir(d), cli.load_pub(StateDir(d)).scale
    written = store.update_proof_file(2).read_bytes()
    stored = read_json(store.update_proof_file(2), UPDATE_PROOF_VERSION)
    decoded = update_proof_from_dict(stored, scale)
    assert json_bytes(update_proof_to_dict(decoded, scale)) == written
    # An update proof of version 8 carried the whole witness, one of
    # version 9 the range bits, one of version 10 an inverse per pair of a
    # training and an unlearnt slot, one of version 11 the constant and
    # the statement beside the free wires, unsigned, and one of version 12
    # every free wire, trailing zeros included: refused as corrupt (exit
    # 3), not judged a false proof (exit 1).
    proof = d / "proofs" / "update_2.json"
    envelope = json.loads(proof.read_text())
    assert envelope["version"] == UPDATE_PROOF_VERSION == 13
    for old in (8, 9, 10, 11, 12):
        proof.write_text(json.dumps({**envelope, "version": old}))
        capsys.readouterr()
        assert run(workspace, "verify-update", "--dir", str(d), "--iteration", "2") == 3
        assert "unsupported envelope version" in capsys.readouterr().err


def test_old_params_envelope_refused(workspace, initialized, capsys):
    marker = json.loads((initialized / "proofs" / "update_0.json").read_text())
    assert marker["version"] == VERSION
    params = initialized / "pub" / "params.json"
    current = json.loads(params.read_text())
    # Versions 1 and 2 recorded no circuits, and version 1 also carried
    # the retired quotient-width key; version 3 had today's fields but
    # fingerprinted text circuit exports.
    # Version 4's data circuit held two unlearnt arrays.  Version 5 hashed
    # every element before combining it into a point digest or model hash.
    # Version 6 absorbed a point's uid and values one element each.
    # Version 7 took any positive gamma and truncated products toward zero.
    # Version 8 left absent slots unpinned.  Version 9's selects, Merkle
    # carries and chain folds returned linear combinations, not one wire.
    # Version 10 recorded each circuit's counts and the initial weights,
    # beside a meta.json per setup.  Version 12's range checks summed their
    # bits after the boolean rows, so no row defined the bits.  Version
    # 13's data circuit proved disjointness with one inverse per pair.
    for old in ({"version": 1, "quotient_bits": 64}, {"version": 2}, {"version": 3},
                {"version": 4}, {"version": 5}, {"version": 6}, {"version": 7},
                {"version": 8}, {"version": 9}, {"version": 10}, {"version": 12},
                {"version": 13}):
        obj = {k: v for k, v in current.items() if k != "circuits" or old["version"] >= 3}
        obj |= old
        params.write_text(json.dumps(obj))
        capsys.readouterr()
        assert run(workspace, "init", "--dir", str(initialized)) == 3
        err = capsys.readouterr().err
        assert "unsupported envelope version" in err and "KeyError" not in err


def test_version_11_params_refused(workspace, updated, capsys):
    # Version 11 also recorded the fixed-point format, which is now fixed:
    # gamma, the field modulus and max_abs.
    params = updated / "pub" / "params.json"
    obj = json.loads(params.read_text())
    assert not {"gamma", "modulus", "max_abs"} & set(obj)
    obj |= {"version": 11, "gamma": 65536, "modulus": f"{SCALE.modulus:x}", "max_abs": 2**20}
    params.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 3
    assert "unsupported envelope version" in capsys.readouterr().err
    # The same fields under the current version are refused too, not ignored.
    params.write_text(json.dumps(obj | {"version": PARAMS_VERSION}))
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 3
    assert "error: corrupt parameters: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(circuits=[]),
        lambda obj: obj["circuits"].update(model="../../state"),
        lambda obj: obj.update(modulus=5),
        lambda obj: obj.pop("kind"),
    ],
    ids=["circuits-list", "fingerprint-path", "modulus-int", "kind-missing"],
)
def test_malformed_params_are_corrupt_state(workspace, initialized, capsys, edit):
    params = initialized / "pub" / "params.json"
    obj = json.loads(params.read_text())
    edit(obj)
    params.write_text(json.dumps(obj))
    # bench reads the config of an existing --dir as the other commands do.
    for command in (
        ("add", "--uid", "9", "--features", "0.5", "--label", "1"),
        ("bench", "--sizes", "4", "--counts-only"),
    ):
        capsys.readouterr()
        assert run(workspace, command[0], "--dir", str(initialized), *command[1:]) == 3, command
        assert "error: corrupt parameters: " in capsys.readouterr().err


def test_config_keys():
    assert sorted(CONFIG_DEFAULTS) == [
        "arity", "backend", "capacity", "epochs", "hash_rounds",
        "hidden", "kind", "learning_rate", "unlearn_capacity",
    ]


@pytest.mark.parametrize("split", ["abc", "0", "1", "1.5", "-0.2", "nan"])
def test_bad_split_is_a_usage_error(workspace, capsys, split):
    capsys.readouterr()
    code = run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "4",
               "--counts-only", "--dataset", str(workspace / "pts.csv"), "--split", split)
    assert code == 2
    assert f"error: bad --split {split!r}: expected a number in (0, 1)" in capsys.readouterr().err


def test_add_batch_trains_once(workspace, monkeypatch):
    csv = workspace / "many.csv"
    rows = [f"{uid},{(uid % 9 - 4) / 4},{uid % 2}" for uid in range(1, 201)]
    csv.write_text("uid,f1,y\n" + "\n".join(rows) + "\n")
    # A capacity that holds the batch: add refuses one the next update
    # could not prove.
    conf = workspace / "wide.conf"
    conf.write_text(CONF.replace("capacity = 8\nunlearn", "capacity = 200\nunlearn"))
    initialized = workspace / "wide"
    assert run(workspace, "setup", "--dir", str(initialized), "--config", str(conf)) == 0
    assert run(workspace, "init", "--dir", str(initialized)) == 0
    store = StateDir(initialized)
    pub = store.load_public_params()
    looped = store.load_state()
    for d in ingest_csv(csv, pub.scale).dataset.points:
        looped = protocol.queue_add(looped, d, pub)
    calls = []
    train_model = protocol.train_model
    monkeypatch.setattr(protocol, "train_model", lambda *a: calls.append(a) or train_model(*a))
    assert run(workspace, "add", "--dir", str(initialized), "--dataset", str(csv)) == 0
    assert len(calls) == 1
    assert store.load_state().pending_add == looped.pending_add


def test_only_admission_trains_natively(workspace, initialized, monkeypatch):
    # update trains inside the model circuit; add trains the would-be set
    # natively, once per batch, to refuse points no update could prove.
    calls = []
    real = training.train_model
    for module in (training, protocol, game, cli):
        if getattr(module, "train_model", None) is real:
            monkeypatch.setattr(module, "train_model", lambda *a: calls.append(a) or real(*a))
    d = str(initialized)
    assert run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv")) == 0
    assert len(calls) == 1
    assert run(workspace, "update", "--dir", d) == 0
    assert len(calls) == 1
    store = StateDir(initialized)
    state = store.load_state()
    assert len(state.dataset) == 4
    assert state.model == real(state.dataset, store.load_public_params().config.train)


@pytest.mark.parametrize("sizes", ["abc", "0", "-4", "4,x"])
def test_bad_sizes_is_a_usage_error(workspace, capsys, sizes):
    capsys.readouterr()
    code = run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", sizes,
               "--counts-only")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: bad --sizes {sizes!r}: expected comma-separated positive integers" in err


@pytest.mark.parametrize(
    "options,named",
    [
        (("--config", "nosuch.conf"), "--config"),
        (("--backend", "snark"), "--backend"),
        (("--config", "nosuch.conf", "--backend", "snark"), "--config and --backend"),
    ],
    ids=["config", "backend", "both"],
)
def test_bench_dir_with_params_refuses_config_and_backend(
    workspace, initialized, capsys, options, named
):
    # The directory's own parameters fix the config and the backend, so
    # an option that would be ignored is a usage error.
    capsys.readouterr()
    code = run(workspace, "bench", "--dir", str(initialized), *options, "--sizes", "2",
               "--counts-only")
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {named} cannot be combined with --dir {initialized}" in err
    assert run(workspace, "bench", "--dir", str(initialized), "--sizes", "2",
               "--counts-only") == 0


def test_bench_dir_without_params_is_a_usage_error(workspace, capsys):
    # Such a --dir was ignored, and bench measured the default config.
    missing = workspace / "nosuch"
    capsys.readouterr()
    assert run(workspace, "bench", "--dir", str(missing), "--sizes", "2", "--counts-only") == 2
    assert f"error: {missing} is not initialized (run setup first)" in capsys.readouterr().err
    assert not missing.exists()


def test_bench_accuracy_on_one_row_is_a_usage_error(workspace, capsys):
    # One row leaves no test set: accuracy raised EmptyDataset through main.
    one = workspace / "one.csv"
    one.write_text("uid,f1,y\n1,0.5,1\n")
    capsys.readouterr()
    code = run(workspace, "bench", "--config", str(workspace / "conf"), "--sizes", "2",
               "--counts-only", "--dataset", str(one))
    assert code == 2
    assert (f"error: cannot report accuracy on {one}: cannot split 1 row(s) into a train "
            "and a test set") in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,refused",
    [
        ("uid,f1\n1,0.5\n2,0.25\n", "missing label column"),
        ("uid,f1,y\n1,0.5,1\n", "cannot split 1 row(s)"),
    ],
)
def test_bench_refuses_a_bad_dataset_before_benchmarking(workspace, monkeypatch, capsys, text,
                                                         refused):
    # The file is ingested and split before any --sizes entry runs.
    bad = workspace / "bad.csv"
    bad.write_text(text)

    def no_bench(*args, **kwargs):
        raise AssertionError("benchmarked before refusing --dataset")

    monkeypatch.setattr(bench, "bench_sizes", no_bench)
    capsys.readouterr()
    assert run(workspace, "bench", "--config", str(workspace / "conf"),
               "--dataset", str(bad)) == 2
    assert refused in capsys.readouterr().err


def test_bench_pins_the_update_proof_size(capsys):
    # bench's points are seeded, so the default config's update proof at
    # size 10 has the same length on every run: a format change shows
    # here as a number.  bench fills every slot, so the model payload's
    # only trailing zero is the last point's label 0, which the list no
    # longer carries: 2,930 bytes before, less the 8 of its hex ',"0"'.
    assert main(["bench", "--sizes", "10", "--json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["entries"]
    assert (entry["model_free_wires"], entry["data_free_wires"]) == (40, 24)
    assert entry["timings"]["verified"] == 1.0
    assert entry["update_proof_bytes"] == 2922


def test_commands_import_only_what_they_run(workspace, initialized):
    # Importing the CLI loads no benchmark, game or circuit code, and the
    # commands that build no circuit leave it unloaded; subprocess serves
    # only the Groth16 helper, so witness-check commands never load it.
    script = (
        "import json, sys\n"
        "from unlearn.cli import main\n"
        "loaded = [set(sys.modules)]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded.append(set(sys.modules))\n"
        "print(json.dumps([sorted(m for m in s if m.startswith('unlearn') or m == 'subprocess')\n"
        "                  for s in loaded]))\n"
    )
    d, csv = str(initialized), str(workspace / "pts.csv")
    commands = [["add", "--dir", d, "--dataset", csv], ["delete", "--dir", d, "--uid", "2"]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                          capture_output=True, text=True, check=True)
    on_import, after_commands = json.loads(proc.stdout.splitlines()[-1])
    unneeded = {f"unlearn.{m}" for m in ("bench", "game", "circuits", "gadgets", "r1cs")}
    unneeded.add("subprocess")
    assert "unlearn.cli" in on_import
    assert not unneeded & set(on_import)
    assert not unneeded & set(after_commands)


# The options each command reads, beyond --dir and --json.
COMMAND_OPTIONS = {
    "setup": {"--config", "--backend"},
    "init": set(),
    "add": {"--dataset", "--uid", "--features", "--label"},
    "delete": {"--uid", "--dataset"},
    "update": set(),
    "verify-update": {"--iteration"},
    "prove-unlearn": {"--uid", "--dataset"},
    "verify-unlearn": {"--uid", "--iteration", "--dataset"},
    "audit-setup": set(),
    "game": set(),
    "bench": {"--config", "--backend", "--dataset"},
}
SHARED_OPTIONS = {
    "--config": "conf", "--backend": "snark", "--dataset": "pts.csv", "--uid": "1",
    "--iteration": "1", "--features": "0.5", "--label": "1",
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_accepts_only_the_options_it_reads(command, capsys):
    parser = cli.build_parser()
    for option, value in SHARED_OPTIONS.items():
        argv = [command, "--dir", "st", option, value]
        if option in COMMAND_OPTIONS[command]:
            assert getattr(parser.parse_args(argv), option[2:]) is not None
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ("update", "--backend", "snark"),
        ("update", "--config", "nosuch.conf"),
        ("init", "--dataset", "nosuch.csv"),
        ("verify-update", "--iteration", "0", "--backend", "snark"),
    ],
    ids=["update-backend", "update-config", "init-dataset", "verify-update-backend"],
)
def test_an_option_the_command_ignores_is_a_usage_error(workspace, initialized, args):
    before = snapshot(initialized)
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--dir", str(initialized), *args[1:]])
    assert exc.value.code == 2
    assert snapshot(initialized) == before


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```")[1::2]
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("unlearn ")
    ]
    assert len(commands) >= 15
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])


def test_circuits_built_only_by_setup_update_and_audit(workspace, monkeypatch, capsys):
    calls = collections.Counter()

    def count(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    count(circuits.ModelCircuit, "__init__", "model_build")
    count(circuits.DataCircuit, "__init__", "data_build")
    count(ConstraintSystem, "from_export", "parse")
    count(ConstraintSystem, "export", "export")
    d, csv = str(workspace / "st"), str(workspace / "pts.csv")
    for args in (
        ("setup", "--dir", d, "--config", str(workspace / "conf")),
        ("init", "--dir", d),
        ("verify-update", "--dir", d, "--iteration", "0"),
        ("add", "--dir", d, "--dataset", csv),
        ("delete", "--dir", d, "--uid", "2"),
        ("update", "--dir", d),
        ("verify-update", "--dir", d, "--iteration", "1"),
        ("prove-unlearn", "--dir", d, "--uid", "2"),
        ("verify-unlearn", "--dir", d, "--uid", "2", "--iteration", "1", "--dataset", csv),
        ("audit-setup", "--dir", d),
        ("bench", "--config", str(workspace / "conf"), "--sizes", "4", "--json"),
    ):
        calls.clear()
        capsys.readouterr()
        assert main(list(args)) == 0, args
        if args[0] in ("setup", "audit-setup"):
            expected = {"model_build": 1, "data_build": 1, "export": 2}
        elif args[0] == "bench":
            # What setup, update and verify-update make together.
            expected = {"model_build": 1, "data_build": 1, "export": 2, "parse": 4}
            (entry,) = json.loads(capsys.readouterr().out)["entries"]
            t = entry["timings"]
            assert t["setup_s"] > 0 and t["update_s"] > 0 and t["verify_s"] > 0
            assert t["verified"] == 1
        elif args[0] == "update" or args[0] == "verify-update" and args[-1] != "0":
            # update builds no circuit: it computes each projection natively
            # and completes it against the stored export.
            expected = {"parse": 2}
        else:
            expected = {}
        assert dict(calls) == expected, args


@pytest.fixture
def updated(workspace, initialized):
    d = str(initialized)
    assert run(workspace, "add", "--dir", d, "--dataset", str(workspace / "pts.csv")) == 0
    assert run(workspace, "update", "--dir", d) == 0
    return initialized


def _model_export(root):
    params = json.loads((root / "pub" / "params.json").read_text())
    return root / "pub" / "circuits" / f"{params['circuits']['model']}.r1cs"


@pytest.mark.parametrize("tamper", ["flip", "delete"])
def test_tampered_circuit_export_is_corrupt_state(workspace, updated, capsys, tamper):
    d = str(updated)
    path = _model_export(updated)
    if tamper == "flip":
        # Another coefficient id for the last term of C, still well formed.
        data = bytearray(path.read_bytes())
        data[-4:] = struct.pack("<I", 0 if data[-4:] != bytes(4) else 1)
        ConstraintSystem.from_export(bytes(data))
        path.write_bytes(bytes(data))
    else:
        path.unlink()
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 3
    assert f"error: corrupt envelope: {path}: " in capsys.readouterr().err
    # A statement mismatch is rejected before the constraints are read.
    proof = updated / "proofs" / "update_1.json"
    obj = json.loads(proof.read_text())
    h_m = obj["model_proof"]["public_inputs"][0]
    obj["model_proof"]["public_inputs"][0] = h_m[:-1] + ("1" if h_m[-1] == "0" else "0")
    proof.write_text(json.dumps(obj))
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 1
    assert run(workspace, "audit-setup", "--dir", d) == 1
    assert "MISMATCH: model export" in capsys.readouterr().out


def test_stored_circuit_records_must_match_the_config(workspace, updated, capsys):
    d = str(updated)
    params = updated / "pub" / "params.json"
    original = params.read_text()
    capsys.readouterr()
    assert run(workspace, "audit-setup", "--dir", d, "--json") == 0
    assert json.loads(capsys.readouterr().out)["accepted"] is True
    # A config whose model circuit no longer has the stored fingerprint.
    obj = json.loads(original)
    obj["epochs"] = 2
    params.write_text(json.dumps(obj))
    assert run(workspace, "add", "--dir", d, "--uid", "9", "--features", "0.5",
               "--label", "1") == 0
    before = snapshot(updated)
    assert run(workspace, "update", "--dir", d) == 3
    assert "fingerprint" in capsys.readouterr().err
    assert snapshot(updated) == before
    assert run(workspace, "audit-setup", "--dir", d) == 1
    assert "MISMATCH: model fingerprint" in capsys.readouterr().out
    # A recorded fingerprint of another stored circuit.
    obj = json.loads(original)
    obj["circuits"]["data"] = obj["circuits"]["model"]
    params.write_text(json.dumps(obj))
    assert run(workspace, "audit-setup", "--dir", d) == 1
    assert "MISMATCH: data fingerprint, data export" in capsys.readouterr().out


def test_same_shape_config_drift_fails_against_the_stored_circuit(workspace, updated, capsys):
    # Another learning rate: the same wires, other rows.  update proves
    # against the stored circuit, which refuses the inputs.
    d = str(updated)
    params = updated / "pub" / "params.json"
    obj = json.loads(params.read_text())
    lr = obj["learning_rate"]
    obj["learning_rate"] = f"{int(lr, 16) + 1:0{len(lr)}x}"
    params.write_text(json.dumps(obj))
    assert run(workspace, "add", "--dir", d, "--uid", "9", "--features", "0.5",
               "--label", "1") == 0
    before = snapshot(updated)
    capsys.readouterr()
    assert run(workspace, "update", "--dir", d) == 3
    err = capsys.readouterr().err
    stored = StateDir(updated).setup_store.load_circuit(obj["circuits"]["model"])
    # The projection update computed: the constant, the statement and the
    # free wires.
    inputs = 1 + stored.num_public + len(stored.free_wires())
    assert f"the {inputs} inputs computed from the config do not satisfy" in err
    assert f"fingerprint {obj['circuits']['model'][:12]}" in err
    # The message names the first stored row the inputs fail.
    assert re.search(rf"\({stored.num_wires} wires\) at row \d+; ", err)
    assert snapshot(updated) == before


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["022", "077"])
def test_pub_files_follow_the_umask(workspace, mask):
    d = workspace / "st"
    old = os.umask(mask)
    try:
        assert run(workspace, "setup", "--dir", str(d), "--config", str(workspace / "conf")) == 0
    finally:
        os.umask(old)
    files = [d / "pub" / "params.json", *(d / "pub" / "circuits").glob("*.r1cs")]
    assert len(files) == 3
    for f in files:
        assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~mask, f


@pytest.fixture
def unlearnt(workspace, updated):
    """Iteration 2 deleted uid 2, and its unlearning proof is written."""
    d = str(updated)
    assert run(workspace, "delete", "--dir", d, "--uid", "2") == 0
    assert run(workspace, "update", "--dir", d) == 0
    assert run(workspace, "prove-unlearn", "--dir", d, "--uid", "2") == 0
    return updated


VERIFY_UNLEARN = ("verify-unlearn", "--uid", "2", "--iteration", "2", "--dataset", "pts.csv")


@pytest.mark.parametrize(
    "name, edit, commands",
    [
        ("state.json", lambda obj: obj.update(points=5),
         [("add", "--uid", "9", "--features", "0.5", "--label", "1")]),
        ("proofs/update_2.json", lambda obj: obj["model_proof"].update(public_inputs=5),
         [("verify-update", "--iteration", "2")]),
        ("commitments/com_2.json", lambda obj: obj.update(h_m=5),
         [("verify-update", "--iteration", "2"), VERIFY_UNLEARN]),
        ("proofs/unlearn_2_2.json", lambda obj: obj.update(path=5), [VERIFY_UNLEARN]),
    ],
    ids=["state", "update-proof", "commitment", "unlearn-proof"],
)
def test_wrong_type_fields_are_corrupt(workspace, unlearnt, capsys, name, edit, commands):
    path = unlearnt / name
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    for command, *rest in commands:
        rest = [str(workspace / a) if a.endswith(".csv") else a for a in rest]
        capsys.readouterr()
        assert run(workspace, command, "--dir", str(unlearnt), *rest) == 3
        assert "error: corrupt " in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("iteration", "1"), ("iteration", -5), ("iteration", True),
     ("deleted_uids", ["2"]), ("deleted_uids", [2**64]), ("deleted_uids", "2")],
    ids=["iteration-text", "iteration-negative", "iteration-bool", "uid-text", "uid-65-bits",
         "uids-text"],
)
def test_state_fields_of_the_wrong_type_are_corrupt(workspace, unlearnt, capsys, field, value):
    # Unchecked, an iteration of "1" crashed update with a TypeError, -5
    # made it write com_-4.json, and a uid of "2" dropped the ban on adding
    # uid 2 again.
    state = unlearnt / "state.json"
    state.write_text(json.dumps(json.loads(state.read_text()) | {field: value}))
    before = snapshot(unlearnt)
    for command, *rest in (("update",), ("add", "--uid", "2", "--features", "-0.25",
                                         "--label", "0")):
        capsys.readouterr()
        assert run(workspace, command, "--dir", str(unlearnt), *rest) == 3
        assert "error: corrupt state: " in capsys.readouterr().err
    assert snapshot(unlearnt) == before


def test_a_state_arity_other_than_the_configs_is_corrupt(workspace, initialized, capsys):
    # Unchecked, an arity of "1" beside stored points was reported as a
    # point of the wrong arity, and an empty state of arity 2 under this
    # arity-1 config refused every valid point as a reject (exit 1).
    d = str(initialized)
    state = initialized / "state.json"
    empty = json.loads(state.read_text())
    add_csv = ("add", "--dataset", str(workspace / "pts.csv"))
    assert run(workspace, add_csv[0], "--dir", d, *add_csv[1:]) == 0
    assert run(workspace, "update", "--dir", d) == 0
    with_points = json.loads(state.read_text())
    assert with_points["points"]
    for obj, message in (
        (empty | {"arity": 2}, "state arity 2 is not the config's arity 1"),
        (with_points | {"arity": "1"}, "state arity '1' is not a non-negative integer"),
    ):
        state.write_text(json.dumps(obj))
        before = snapshot(initialized)
        for command, *rest in (add_csv, ("update",)):
            capsys.readouterr()
            assert run(workspace, command, "--dir", d, *rest) == 3
            assert f"error: corrupt state: {message}" in capsys.readouterr().err
        assert snapshot(initialized) == before


def test_non_canonical_hex_is_corrupt(workspace, updated, capsys):
    # A 0x prefix at the canonical length: int(s, 16) reads it, and when
    # the dropped digits are zeros it reads the same h_m.  The envelope
    # takes the one text to_hex writes.
    path = updated / "commitments" / "com_1.json"
    obj = json.loads(path.read_text())
    obj["h_m"] = "0x" + obj["h_m"][2:]
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 3
    assert "error: corrupt envelope: field element is not lowercase hex" in capsys.readouterr().err


def _model_payload(store: StateDir, iteration: int) -> tuple[dict, dict, list[str]]:
    """An update proof's envelope, its model proof and that proof's wires."""
    envelope = json.loads(store.update_proof_file(iteration).read_text())
    blob = envelope["model_proof"]
    return envelope, blob, json.loads(bytes.fromhex(blob["proof_bytes"]))["wires"]


def _write_payload(store: StateDir, iteration: int, envelope: dict, payload: dict) -> None:
    envelope["model_proof"]["proof_bytes"] = (
        json.dumps(payload, separators=(",", ":")).encode().hex()
    )
    store.update_proof_file(iteration).write_text(json.dumps(envelope))


def test_a_flipped_slot_input_in_the_model_payload_is_rejected(workspace, updated, capsys):
    # The benchmark's tamper check edits entry 1 + len(public_inputs) of
    # the model payload, which lists only the free wires: slot 0's label
    # (uid 1's 1.0).  Entry 0 is slot 0's presence bit.  Both edits stay
    # canonical, so only the constraints can reject them.
    store = StateDir(updated)
    honest = store.update_proof_file(1).read_text()
    _, blob, _ = _model_payload(store, 1)
    label = 1 + len(blob["public_inputs"])
    for entry, value, flipped in ((label, "10000", "10001"), (0, "1", "0")):
        envelope, _, wires = _model_payload(store, 1)
        assert wires[entry] == value
        wires[entry] = flipped
        _write_payload(store, 1, envelope, {"v": 5, "wires": wires})
        capsys.readouterr()
        assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 1
        store.update_proof_file(1).write_text(honest)
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 0


def test_a_partly_filled_state_carries_only_its_live_slots(workspace, capsys):
    # Two live points at capacity 8: the model payload ends at slot 1's
    # label, so its six absent slots of four zeros each are not written.
    # The benchmark's tamper edit, entry 1 + len(public_inputs), is still
    # carried, and is still rejected.
    d = str(workspace / "two")
    (workspace / "two.csv").write_text("uid,f1,y\n1,0.5,1\n2,-0.25,1\n")
    for args in (("setup", "--config", str(workspace / "conf")), ("init",),
                 ("add", "--dataset", str(workspace / "two.csv")), ("update",)):
        assert run(workspace, args[0], "--dir", d, *args[1:]) == 0
    store = StateDir(d)
    assert cli.load_pub(store).model_relation.circuit.num_free == 8 * 4
    envelope, blob, wires = _model_payload(store, 1)
    assert 0 < len(wires) <= 8 and wires[-1] != "0"
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 0
    k = 1 + len(blob["public_inputs"])  # slot 0's label, uid 1's 1.0
    assert wires[k] == "10000"
    wires[k] = "10001"
    _write_payload(store, 1, envelope, {"v": 5, "wires": wires})
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", d, "--iteration", "1") == 1
    assert "iteration 1: REJECT" in capsys.readouterr().out


# JSON nested past the decoder's recursion limit.
NESTED = b"[" * 100_000


def test_a_deeply_nested_model_payload_is_rejected(workspace, updated, capsys):
    # A malformed proof: REJECT (exit 1), not a traceback.
    store = StateDir(updated)
    envelope, _, _ = _model_payload(store, 1)
    envelope["model_proof"]["proof_bytes"] = NESTED.hex()
    store.update_proof_file(1).write_text(json.dumps(envelope))
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 1
    out, err = capsys.readouterr()
    assert "iteration 1: REJECT" in out and "Traceback" not in err


def test_a_deeply_nested_envelope_is_corrupt(workspace, updated, capsys):
    # A corrupt envelope (exit 3), not a traceback.
    StateDir(updated).update_proof_file(1).write_bytes(NESTED)
    capsys.readouterr()
    assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 3
    err = capsys.readouterr().err
    assert "corrupt envelope" in err and "nested too deeply" in err and "Traceback" not in err


def test_a_version_2_model_payload_is_rejected(workspace, updated, capsys, monkeypatch):
    # The honest witness listed as version 2 did: beside the free wires,
    # every range bit, recorded here as ``bits`` allocates them.
    store = StateDir(updated)
    pub = cli.load_pub(store)
    range_bits, bits = [], gadgets.CircuitBuilder.bits

    def recording(self, a, width):
        out = bits(self, a, width)
        range_bits.extend(out)
        return out

    monkeypatch.setattr(gadgets.CircuitBuilder, "bits", recording)
    circuits.ModelCircuit(pub.config)
    monkeypatch.undo()
    cs = pub.model_relation.circuit
    envelope, blob, wires = _model_payload(store, 1)
    statement = [int(v, 16) for v in blob["public_inputs"]]
    # The payload ends at the last nonzero free wire; zeros fill the rest.
    free = [int(v, 16) % SCALE.modulus for v in wires]
    free += [0] * (cs.num_free - len(free))
    projection = [1, *statement, *free]
    witness = cs.complete(projection)
    kept = sorted({*cs.free_wires(), *range_bits})
    assert len(kept) == len(free) + len(range_bits)
    values = [*witness[: 1 + cs.num_public], *(witness[w] for w in kept)]
    # Version 3 listed the constant, the statement and the free wires,
    # each as an unsigned field element; version 4 every free wire, signed,
    # trailing zeros included.
    half = SCALE.modulus // 2
    for old in ({"v": 2, "wires": [f"{v:x}" for v in values]},
                {"v": 3, "wires": [f"{v:x}" for v in projection]},
                {"v": 4, "wires": [f"{v - SCALE.modulus if v > half else v:x}" for v in free]}):
        _write_payload(store, 1, envelope, old)
        capsys.readouterr()
        assert run(workspace, "verify-update", "--dir", str(updated), "--iteration", "1") == 1
