import hashlib

import pytest

from unlearn import r1cs
from unlearn.circuits import DataCircuit, ModelCircuit
from unlearn.cli import build_protocol_config
from unlearn.field import ScaleConfig, fx_encode
from unlearn.hashing import DataPoint, MembershipPath, hash_data_point
from unlearn.proofsys import ProofBlob, SetupArtifacts
from unlearn.protocol import (
    Commitment,
    UnlearnProof,
    prove_update,
    queue_add,
    queue_delete,
    server_init,
)
from unlearn.serialize import (
    EnvelopeError,
    SetupStore,
    StateDir,
    commitment_from_dict,
    commitment_to_dict,
    data_point_to_dict,
    proof_blob_from_dict,
    proof_blob_to_dict,
    protocol_config_from_dict,
    protocol_config_to_dict,
    read_json,
    server_state_from_dict,
    server_state_to_dict,
    unlearn_proof_from_dict,
    unlearn_proof_to_dict,
    atomic_write_json,
)

CFG = ScaleConfig()


def test_commitment_roundtrip():
    com = Commitment(h_m=12345, h_d=0, h_u=CFG.modulus - 1)
    assert commitment_from_dict(commitment_to_dict(com, CFG), CFG) == com


def test_proof_blob_roundtrip():
    blob = ProofBlob("ab" * 32, (1, 2, 3), b"\x00\xffproof")
    assert proof_blob_from_dict(proof_blob_to_dict(blob, CFG), CFG) == blob


def test_unlearn_proof_roundtrip():
    proof = UnlearnProof(path=MembershipPath((5, 6, 7)), iteration=3, uid=9)
    assert unlearn_proof_from_dict(unlearn_proof_to_dict(proof, CFG), CFG) == proof


def test_state_roundtrip_preserves_digests(fast_pub):
    state, _, _ = server_init(fast_pub)
    d = DataPoint(uid=1, x=(fx_encode(0.5, CFG),), y=fx_encode(1, CFG))
    state = queue_add(state, d, fast_pub)
    state, _, _, _ = prove_update(state, fast_pub)
    back = server_state_from_dict(server_state_to_dict(state, CFG), CFG)
    assert back == state


def test_state_roundtrip_keeps_unlearnt_records_in_chain_order(fast_pub):
    state, _, _ = server_init(fast_pub)
    points = [DataPoint(uid=u, x=(fx_encode(u / 4, CFG),), y=fx_encode(1, CFG)) for u in (1, 2, 3)]
    for d in points:
        state = queue_add(state, d, fast_pub)
    state, _, _, _ = prove_update(state, fast_pub)
    state = queue_delete(queue_delete(state, points[2]), points[0])
    state, _, _, _ = prove_update(state, fast_pub)
    obj = server_state_to_dict(state, CFG)
    assert [r["uid"] for r in obj["unlearnt"]] == [3, 1]
    assert [d["uid"] for d in obj["points"]] == [2]
    back = server_state_from_dict(obj, CFG)
    assert back == state
    assert back.hashed_unlearnt == tuple(hash_data_point(points[i], fast_pub.hash_cfg)
                                         for i in (2, 0))


def test_a_state_that_lists_an_unlearnt_uid_twice_is_refused(fast_pub):
    # Twice in the unlearnt set, or unlearnt and queued again, which the
    # next update would turn into a second record.
    state, _, _ = server_init(fast_pub)
    obj = server_state_to_dict(state, CFG)
    record = {"uid": 7, "digest": "00" * 32}
    assert server_state_from_dict(obj | {"unlearnt": [record]}, CFG).unlearnt == ((7, 0),)
    queued = data_point_to_dict(DataPoint(uid=7, x=(0,), y=0), CFG)
    for edit in ({"unlearnt": [record, record | {"digest": "01" * 32}]},
                 {"unlearnt": [record], "pending_delete": [queued]},
                 {"pending_delete": [queued, queued]}):
        with pytest.raises(EnvelopeError, match="lists an unlearnt uid twice"):
            server_state_from_dict(obj | edit, CFG)


def test_protocol_config_roundtrip(fast_pub):
    cfg = fast_pub.config
    assert protocol_config_from_dict(protocol_config_to_dict(cfg)) == cfg


def test_envelope_version_enforced(tmp_path):
    path = tmp_path / "x.json"
    atomic_write_json(path, {"version": 99})
    with pytest.raises(EnvelopeError):
        read_json(path)


def test_setup_store_roundtrip(tmp_path):
    # Fake keys: the store writes and reads bytes, whatever they hold.
    store, fp = SetupStore(tmp_path), "f" * 64
    keys_dir = tmp_path / "setups" / "snark" / fp
    assert store.load("snark", fp) is None
    store.save("snark", fp, SetupArtifacts(b"PKPK", b"VKVK"))
    assert sorted(p.name for p in keys_dir.iterdir()) == ["pk.bin", "vk.bin"]
    stored = store.load("snark", fp)
    assert (stored.proving_params, stored.verifying_params) == (b"PKPK", b"VKVK")
    # vk.bin is written last, so a setup killed before it is absent and
    # runs again.
    (keys_dir / "vk.bin").unlink()
    assert store.load("snark", fp) is None
    # Keys without a verifying key (witness-check's) write nothing.
    store.save("witness-check", fp, SetupArtifacts())
    assert not (tmp_path / "setups" / "witness-check").exists()


def test_stored_keys_are_read_one_file_at_a_time(tmp_path):
    store, fp = SetupStore(tmp_path), "e" * 64
    keys_dir = tmp_path / "setups" / "snark" / fp
    (keys_dir / "pk.bin").mkdir(parents=True)
    (keys_dir / "vk.bin").write_bytes(b"VK")
    keys = store.relation("snark", fp).keys
    assert keys.verifying_params == b"VK"
    with pytest.raises(EnvelopeError, match="pk.bin: setup key unreadable"):
        keys.proving_params
    (keys_dir / "vk.bin").unlink()
    with pytest.raises(EnvelopeError, match="vk.bin: setup key unreadable"):
        store.relation("snark", fp).keys.verifying_params


def test_state_dir_layout(tmp_path):
    sd = StateDir(tmp_path / "st")
    assert sd.commitment_file(3).name == "com_3.json"
    assert sd.update_proof_file(2).name == "update_2.json"
    assert sd.unlearn_proof_file(2, 7).name == "unlearn_2_7.json"
    assert sd.params_file.parent.name == "pub"


@pytest.mark.parametrize(
    "options",
    [
        {"epochs": "10", "capacity": "8", "unlearn_capacity": "8"},
        {"epochs": "1", "capacity": "16", "unlearn_capacity": "16"},
        {"kind": "logistic", "arity": "2", "epochs": "2", "capacity": "2",
         "unlearn_capacity": "2"},
        {"kind": "nn", "hidden": "2", "arity": "2", "epochs": "2", "capacity": "2",
         "unlearn_capacity": "2"},
    ],
    ids=["cli-walkthrough", "cli-unlearn", "logistic", "nn-hidden-2"],
)
def test_stored_export_is_streamed_byte_for_byte(options, tmp_path, monkeypatch):
    # setup writes each export to disk section by section, renumbering
    # coefficient ids a chunk at a time, and hashes the chunks it writes:
    # the file holds export()'s bytes under their SHA-256, whatever the
    # chunk size, and loading it, hashed as it is read, gives them back.
    config = build_protocol_config(options)
    for circuit in (ModelCircuit, DataCircuit):
        cs = circuit(config).cs
        exported = cs.export()
        for chunk in (r1cs._CHUNK, 1000):
            monkeypatch.setattr(r1cs, "_CHUNK", chunk)
            store = SetupStore(tmp_path / str(chunk))
            fingerprint = store.save_circuit(cs)
            assert fingerprint == hashlib.sha256(exported).hexdigest() == cs.fingerprint()
            assert store.circuit_file(fingerprint).read_bytes() == exported
            assert store.load_circuit(fingerprint).export() == exported
