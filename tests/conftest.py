import pytest

from unlearn.field import ScaleConfig
from unlearn.proofsys import snark_available
from unlearn.protocol import ProtocolConfig, global_setup
from unlearn.training import default_train_config

# Reduced-round hash profile: structurally identical to the default, an
# order of magnitude cheaper.  Fine wherever the property under test does
# not depend on the hash's cryptographic strength.
TINY_ROUNDS = 4


@pytest.fixture(scope="session")
def scale():
    return ScaleConfig()


@pytest.fixture(scope="session")
def fast_pub(scale):
    """Capacity-8 witness-check protocol: shared by protocol/game/CLI tests."""
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1, scale=scale),
        capacity=8,
        unlearn_capacity=8,
        backend="witness-check",
        hash_rounds=TINY_ROUNDS,
    )
    return global_setup(config)


needs_snark = pytest.mark.skipif(
    not snark_available(),
    reason="unlearn-groth16 helper not built (cargo build --release in native/groth16)",
)
