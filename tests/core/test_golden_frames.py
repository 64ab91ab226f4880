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
        "AP": "e1ab2b92251fced26e7b892c5bbfd706ce1c3602e31002e17ef96a951ef55211",
        "BM": "458898964d7682cfded9ba08d05e86375ac3ed7bcbc633f92291701f937494f4",
        "BP": "4b34fd27bffe30d84051ec5eaf2a7c12cda8d0de811d0e61282606c0f1b3a054",
        "BT": "543539d20dbd5b40c8cf0b15cb750242d630c776e580be362c632d4882855c86",
        "BW": "486320dc54296ab2c0df1f3affb922fcdf585cadc5fb2d3f3ab42be8fc447916",
        "CT": "8c0b6f992dabb3c002357a60ca835dd0645674c0df7b4eea9ebe60c6e2d1b581",
        "DP": "844bdf7d1901c6335630b3c526d7fdc7adcba77ace7d0c26acbf7ce72c0d7f57",
        "DU": "fe1d9da180f19ac0d700819417b559f24b57195dc46cddfd786215c9fbdc464d",
        "ECG": "0d26d0e6135b881c8e6b47715a79f27c6b50d959b0ac355adb8f81bd2028c10c",
        "GE": "f72019df253cf68dd01b4cd222c86ecb3e1975a082360c5644e72fe022bae524",
        "IT": "8bbe9a255d0d6e91442156497828d7b7b56ff734c9bc3eecd9e19e7ab94a7ae4",
        "LAT": "86306d8323c1748a3f3529c284c779aab31d13abab59fc1498d00a7b0589f35c",
        "LON": "a49e999b2c30fcd35c25d1475878030d97a12a4ea678d29036c77bf10cf38bbd",
        "UK": "70e89b52e2c27e5cf489f3db4cc7ca498d91f196c370e3094739814c47ac0e43",
        "US": "c4fdd335d0047d49773671048ab5136a081f825029911c43d033f592be4eb82b",
        "WD": "99d6222633ed1917a6e7ed3d9fc8fa55e2671e68c7e97a4157aec00f8eff73b5",
    },
    "neats_lqr": {
        "AP": "20d4ce46eb8f08522d858e19e020925828eb061ae8abd135c3897fc728e6848b",
        "BM": "e67711ab2974428559a95c8df62026e65978be0c9ff911535647113497e7e40c",
        "BP": "d9af492b31f286aaf30f4fb924fd04b57908fed5e3a470e73735b8eb519bd419",
        "BT": "543539d20dbd5b40c8cf0b15cb750242d630c776e580be362c632d4882855c86",
        "BW": "2c7b67cb7818b62f7b6eee6282c730ddde440b5a7297307922135239279bbf83",
        "CT": "c72bda13e01ec207fa9c016368b614485e9837c19302fdc07a49fa5eee60a341",
        "DP": "ec4e44ecd7d0a63f35a63127fe1c7feafa8d465064e94442cb0c08d4964060a6",
        "DU": "a73e81511179daf97958a0f4844b574f0d93e300d63edfd59dbb01eaf1883e63",
        "ECG": "21a85bc5fe28f57db946292a61e64e9ce90eba228f73f6ca1e17ce5177a019e0",
        "GE": "8cba76d705a287a563d0b1eebf65abd4ae36fa842872a3d0c1740fe7850075d2",
        "IT": "b9dc224a4fd790a3ee6d042e1473b7c6bf449094209df07979d963bdeb05534f",
        "LAT": "409e3a3847ab8b933d0bb88f35b4cff1dbbde79ebba602f27de6746c9426ca8d",
        "LON": "a49e999b2c30fcd35c25d1475878030d97a12a4ea678d29036c77bf10cf38bbd",
        "UK": "70e89b52e2c27e5cf489f3db4cc7ca498d91f196c370e3094739814c47ac0e43",
        "US": "5176e523643049283e7c681f7acaa836a2c033ce08693b5ae683095648886c4b",
        "WD": "2f1d0434091138a314a8a935263dfbaa79c697afa15327ff59576941c19b0ba4",
    },
}

SIZE_BITS = {
    "leats": {
        "AP": 14928, "BM": 12608, "BP": 24336, "BT": 35288,
        "BW": 28096, "CT": 7640, "DP": 8856, "DU": 12672,
        "ECG": 11376, "GE": 9736, "IT": 6664, "LAT": 3000,
        "LON": 1768, "UK": 3544, "US": 7624, "WD": 12032,
    },
    "neats_lqr": {
        "AP": 14624, "BM": 12368, "BP": 23728, "BT": 35288,
        "BW": 28096, "CT": 7496, "DP": 8856, "DU": 12496,
        "ECG": 11360, "GE": 9656, "IT": 6592, "LAT": 3000,
        "LON": 1768, "UK": 3544, "US": 7560, "WD": 12032,
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
