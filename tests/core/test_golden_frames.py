"""Golden frames: Algorithm 1 and the layout must not change one bit.

The sha256 of ``NeaTSStorage.to_bytes()`` (a ``NeaTS102`` frame) for every
bundled generator at 1024 values (default seeds).  A change meant only to
make compression faster must leave every digest as it is; one that moves a
digest changes the encoded output.

Both model sets use only correctly rounded float operations (``+``, ``-``,
``*``, ``/`` and ``sqrt``), so the digests hold on any CPU.  The
``exponential`` model goes through ``log``/``exp``, whose last bit may depend
on the CPU's vector path, so the default model set is not pinned here.

``size_bits()`` is pinned beside the digests, fresh and after a
``from_bytes`` round trip: it is the frame's size, computed from the
adopted arrays without serialising, so a load path that forgot a field or
miscounted one would move it.  ``NeaTS101`` frames of the same series
written before ``NeaTS102`` are read fixtures (``test_neats101_frames.py``).
"""

import hashlib

import pytest

from repro.core import NeaTS, NeaTSStorage
from repro.data import DATASETS

GOLDEN = {
    "leats": {
        "AP": "ad5fdc8dbca4182abe4972f1026746ee063cebac6358c4a4b9b0cdb62ac0a136",
        "BM": "3844bcd112156b7829b794515d7df0249d59371d08a4114c4c56f50536512985",
        "BP": "fa576f9130a40b247f9dcade47892df3df704ccef923438eb5f1570370bc12ed",
        "BT": "43487c1c7c6d0626f40409289b78fee0898bfca56c159c328e8f53843fd361ca",
        "BW": "9461517b25477d70e729ff6e2000d6a13639065b1c8e9af8484d1c132929f259",
        "CT": "5df7173793c477c7f8e9b28f4f400fef2564de48c27b86e18d719904bb8653d3",
        "DP": "99898f0afaa3c7c29af3ad58ff25da52e17af67dee9647779165badbd3387b1c",
        "DU": "479d71a14b19d74c811c537d0639b2ffd690473c6eae16e531f9c7bd70482f28",
        "ECG": "3da2e3710a5bcaf4777509ba36394578112da8d915cda3e274a749a1253e52e2",
        "GE": "43a94f085da2d469c9dd0fed44cd2133f039f60f576dc790e74a5d27e2ab8b21",
        "IT": "8116b8d757b675f7b250a8914677db31b4402e036b425a84c404d52088300a40",
        "LAT": "c0bd933086304e6a8cc49d65a1662908db63373057fc19cd2e843541be995f83",
        "LON": "8e40de92a3b5b9bb4f4c1c547800c58bc9d804c67de2ee8b9d8ea262f6298c1a",
        "UK": "2f8dca06731e902a27d87ad6b253307ba72f02f2538f5aa5666d2572d3cb6bee",
        "US": "a98136de09e430f12764daaf506c24dd40b488961868d135c4a00a2985f74d79",
        "WD": "cc7fe39f18c958606c77d6e24d3bb92a5ee8fb8214573de0eaa1cd3fb9c664f1",
    },
    "neats_lqr": {
        "AP": "eb9a5b781513357c804e23750f5525fc1d806f5a97d3db75033e43e20797e30c",
        "BM": "64c1b852fe69ffb13d42b3472e0522c756c88200c5b5fdb4a51e0cde4a3baead",
        "BP": "26618f6992614af2860724868d5c9042d3f7c1367ed64e4bdda7b4d7fdb1ea04",
        "BT": "43487c1c7c6d0626f40409289b78fee0898bfca56c159c328e8f53843fd361ca",
        "BW": "d2d0c4f929ee6b0da6b544ee7d8d1332f2ec43a861c2bc7584291d4da29549bc",
        "CT": "077a49305fd040d94394a57e9446fc7aa335ecb6392d6b3c3e23f5dab9e31f93",
        "DP": "b1a8d65c27f514036952b605639d7f81d363c89b20f899fcb7bea9962730acd8",
        "DU": "54b4f83033597c6a46ac8d689b4fe8e170681e6344aa3e6f3ea8345e31331b07",
        "ECG": "8565fa3bf5c9ea06f2600dff6f1f523d0ed2f3fb759a31866cadc85ae7e8e69b",
        "GE": "09e9a2578eafd5edc543b7640c4897fa00759ea9b85939743703389ba5475efb",
        "IT": "bcbfb853ae5678ed9a6428dd933b2d364b1b1228b3791c14095ae20ecdcd6699",
        "LAT": "2bb93234ee55a190a1791c0ce30ec76ad80b8adf22a6f6b45d31a923f24c62b2",
        "LON": "8e40de92a3b5b9bb4f4c1c547800c58bc9d804c67de2ee8b9d8ea262f6298c1a",
        "UK": "2f8dca06731e902a27d87ad6b253307ba72f02f2538f5aa5666d2572d3cb6bee",
        "US": "a98136de09e430f12764daaf506c24dd40b488961868d135c4a00a2985f74d79",
        "WD": "836a0c7fa7b60212c193215eb6daef375ecb228ff6201bdaa71fd98f701604a2",
    },
}

SIZE_BITS = {
    "leats": {
        "AP": 14928, "BM": 12608, "BP": 24144, "BT": 35288,
        "BW": 28096, "CT": 7640, "DP": 8856, "DU": 12624,
        "ECG": 11264, "GE": 9544, "IT": 6496, "LAT": 2104,
        "LON": 1448, "UK": 2816, "US": 7624, "WD": 12032,
    },
    "neats_lqr": {
        "AP": 14624, "BM": 12368, "BP": 23728, "BT": 35288,
        "BW": 28096, "CT": 7496, "DP": 8856, "DU": 12480,
        "ECG": 11216, "GE": 9592, "IT": 6400, "LAT": 2104,
        "LON": 1448, "UK": 2816, "US": 7624, "WD": 12032,
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
    frame = storage.to_bytes()
    reloaded = NeaTSStorage.from_bytes(frame)
    assert storage.size_bits() == reloaded.size_bits() == SIZE_BITS[kind][name]
    assert SIZE_BITS[kind][name] == 8 * len(frame)
