"""Golden frames: Algorithm 1 and the layout must not change one bit.

The sha256 of ``NeaTSStorage.to_bytes()`` for every bundled generator at 1024
values (default seeds).  A change meant only to make compression faster must
leave every digest as it is; one that moves a digest changes the encoded
output.

Both model sets use only correctly rounded float operations (``+``, ``-``,
``*``, ``/`` and ``sqrt``), so the digests hold on any CPU.  The
``exponential`` model goes through ``log``/``exp``, whose last bit may depend
on the CPU's vector path, so the default model set is not pinned here.

``size_bits()`` is pinned beside the digests, fresh and after a
``from_bytes`` round trip: it charges the paper's succinct layout, which the
storage builds only when asked, so a load path that forgot a field or
rebuilt one differently would move it.
"""

import hashlib

import pytest

from repro.core import NeaTS, NeaTSStorage
from repro.data import DATASETS

GOLDEN = {
    "leats": {
        "AP": "d331952b8638dd0221cb0edb0a9b8b161456ce2f66ce4c1c9dfc38ecf0761cfd",
        "BM": "f8978175fda182711fbe655d37f8b6d7f19334f9f447dd6106baa22014c3d83c",
        "BP": "d8b26cd2ac74d57cf8a6920cc3ce3280b5dfd3453fbce9114e314993d8b609ec",
        "BT": "70b30b799910b866963bb650b9fd024ddb3b705b9cc7b481135d9dc84dc9e843",
        "BW": "63629eb373838d1f4443fa4b66851bd3a4561dc823d08514b3fb259ac9c2fcd7",
        "CT": "dab79c99056a0bf39df2fbc892a443d3fdb215665746d38a7fa15fcdf152dbcf",
        "DP": "4a273d1b0ebc283bb0ca299e6a112f2916c6ebc465890fafe8f04945b54e372e",
        "DU": "6565b71e2acd14bf58ea9831074fb5a582a2f48803980d9922a6981635026ed3",
        "ECG": "bf7b65d880ca49e6dd265aad52477d348efd408e740f4e680297364a18a6f434",
        "GE": "0812436a7a0eed567fed4c3c4f1ce724abf8fc7a0f9497f21c635772d17c61e1",
        "IT": "ed54d5886d362003fc4e965d54a96c93bd365ee0672930bab801b6f5c6499262",
        "LAT": "23d400528a3c9499099ec820982c8af36c290c30f5ceee092f7646f92ebbadb9",
        "LON": "8b073c71a90037ce145b82feb495f31dd21559a093a494060a41d8e0036b877e",
        "UK": "71881279f65371e5596f35f733244f61fe7e3a64f34366a43cadf93d34b1468a",
        "US": "794104d2b85647efaad1601460e1404a326142dcdf47e1a0f44d6d0dc9e6c44a",
        "WD": "0e51268f98f88bc703712622c12370fd96af75a888a3e2317db77b02b63116d1",
    },
    "neats_lqr": {
        "AP": "77e492d28f9e4a2c2a0db2bf6ee6ccd3bc6d0960eec56b690a6a54ca56e82264",
        "BM": "64bccc38ccf6f14f8db2e9fada9898e3b1bd7fd05c5e9baf07cb006cea55c5a8",
        "BP": "ad29b2c79ba5fe118f067cee848208e278a68c164103772264699417d9e38e2c",
        "BT": "70b30b799910b866963bb650b9fd024ddb3b705b9cc7b481135d9dc84dc9e843",
        "BW": "63629eb373838d1f4443fa4b66851bd3a4561dc823d08514b3fb259ac9c2fcd7",
        "CT": "fac05669e7099f5a0fec694bd32e55edaa3550cac14f617800d886de35312790",
        "DP": "bc50fa6f7c298aa4d039c913ab87abbd34643e0a8854055a1f5773e9538209bd",
        "DU": "554ec8a2a0ad90fad5c1ad983b264f8ba6f34121915e36c24769337e7464c4ee",
        "ECG": "bf7b65d880ca49e6dd265aad52477d348efd408e740f4e680297364a18a6f434",
        "GE": "6a1e53b6bd5bb0f91846b00461d8c387d5ec2898cf4abdf33226922ddafb41ec",
        "IT": "e40091a1ac9756414d601dfad8b6fca1e926ffc7adc2dd4e7118a42840393a20",
        "LAT": "066e1241cc8bd4145a709ef9e2c45235b045fb24daf2d0e528d5675a14cf1a3c",
        "LON": "8b073c71a90037ce145b82feb495f31dd21559a093a494060a41d8e0036b877e",
        "UK": "71881279f65371e5596f35f733244f61fe7e3a64f34366a43cadf93d34b1468a",
        "US": "d7888115639908d2396b21fc34182deb393a832ea09de2ce138a1e672a9adb39",
        "WD": "0e51268f98f88bc703712622c12370fd96af75a888a3e2317db77b02b63116d1",
    },
}

SIZE_BITS = {
    "leats": {
        "AP": 15628, "BM": 13428, "BP": 25005, "BT": 35876,
        "BW": 28706, "CT": 8311, "DP": 9651, "DU": 13245,
        "ECG": 12112, "GE": 10354, "IT": 7212, "LAT": 3521,
        "LON": 2317, "UK": 4124, "US": 8236, "WD": 12740,
    },
    "neats_lqr": {
        "AP": 15542, "BM": 13340, "BP": 24382, "BT": 35876,
        "BW": 28706, "CT": 8209, "DP": 9681, "DU": 13544,
        "ECG": 12112, "GE": 10471, "IT": 7507, "LAT": 3569,
        "LON": 2317, "UK": 4124, "US": 8198, "WD": 12740,
    },
}

COMPRESSORS = {
    "leats": NeaTS.linear_only,
    "neats_lqr": lambda: NeaTS(models=("linear", "quadratic", "radical")),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN))
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_frame_digest_is_unchanged(kind, name):
    y = DATASETS[name].generate(1024)
    frame = COMPRESSORS[kind]().compress(y).storage.to_bytes()
    assert hashlib.sha256(frame).hexdigest() == GOLDEN[kind][name]


@pytest.mark.parametrize("kind", sorted(SIZE_BITS))
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_size_bits_is_unchanged(kind, name):
    y = DATASETS[name].generate(1024)
    storage = COMPRESSORS[kind]().compress(y).storage
    reloaded = NeaTSStorage.from_bytes(storage.to_bytes())
    assert storage.size_bits() == reloaded.size_bits() == SIZE_BITS[kind][name]
