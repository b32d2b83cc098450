import pytest

from unlearn.field import ScaleConfig, fx_encode
from unlearn.hashing import DataPoint, MembershipPath
from unlearn.proofsys import ProofBlob
from unlearn.protocol import Commitment, UnlearnProof, queue_add, prove_update, server_init
from unlearn.serialize import (
    EnvelopeError,
    SetupStore,
    StateDir,
    commitment_from_dict,
    commitment_to_dict,
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
    blob = ProofBlob("snark", "ab" * 32, (1, 2, 3), b"\x00\xffproof")
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


def test_protocol_config_roundtrip(fast_pub):
    cfg = fast_pub.config
    assert protocol_config_from_dict(protocol_config_to_dict(cfg)) == cfg


def test_envelope_version_enforced(tmp_path):
    path = tmp_path / "x.json"
    atomic_write_json(path, {"version": 99})
    with pytest.raises(EnvelopeError):
        read_json(path)


def test_setup_store_roundtrip(tmp_path):
    from unlearn.proofsys import SetupArtifacts

    store = SetupStore(tmp_path)
    artifacts = SetupArtifacts("snark", "f" * 64, b"PKPK", b"VKVK")
    assert store.load("snark", "f" * 64) is None
    store.save(artifacts)
    assert store.load("snark", "f" * 64) == artifacts


def test_state_dir_layout(tmp_path):
    sd = StateDir(tmp_path / "st")
    assert sd.commitment_file(3).name == "com_3.json"
    assert sd.update_proof_file(2).name == "update_2.json"
    assert sd.unlearn_proof_file(2, 7).name == "unlearn_2_7.json"
    assert sd.params_file.parent.name == "pub"
