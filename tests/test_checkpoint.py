import hashlib
import json

import numpy as np
import pytest

from winoref import checkpoint as ckpt

PINNED_CHECKPOINT = "12700d631f8d37001337b7a4762c72767a3632568de4e853f1f6efc1360a32cb"


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "emb": rng.normal(size=(5, 3)),
        "bias": rng.normal(size=7).astype(np.float32),
        "scalarish": np.array([3.14159]),
    }


def test_round_trip_bit_exact(tmp_path):
    arrays = _arrays()
    path = tmp_path / "a.ckpt.json"
    h1 = ckpt.save(path, arrays, meta={"note": "x"})
    loaded, meta = ckpt.load(path)
    assert meta == {"note": "x"}
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].tobytes() == arr.tobytes()

    # save -> load -> save produces identical bytes
    path2 = tmp_path / "b.ckpt.json"
    h2 = ckpt.save(path2, loaded, meta={"note": "x"})
    assert h1 == h2
    assert path.read_bytes() == path2.read_bytes()


def test_big_endian_arrays_round_trip_as_their_values(tmp_path):
    # the file holds little-endian bytes under the dtype's little-endian
    # form, so an array of either byte order saves as the same file; a
    # big-endian array's hash used to name its byte order, and its file
    # failed to load as corrupt
    arrays = _arrays()
    swapped = {name: arr.astype(arr.dtype.newbyteorder(">")) for name, arr in arrays.items()}
    ckpt.save(tmp_path / "native.ckpt.json", arrays)
    ckpt.save(tmp_path / "swapped.ckpt.json", swapped)
    assert ((tmp_path / "swapped.ckpt.json").read_bytes()
            == (tmp_path / "native.ckpt.json").read_bytes())
    loaded, _ = ckpt.load(tmp_path / "swapped.ckpt.json")
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].tobytes() == arr.tobytes()


def test_content_hash_changes_with_data(tmp_path):
    arrays = _arrays()
    h1 = ckpt.params_hash(arrays)
    arrays["emb"] = arrays["emb"] + 1e-9
    assert ckpt.params_hash(arrays) != h1


def test_corrupt_payload_detected(tmp_path):
    path = tmp_path / "c.ckpt.json"
    ckpt.save(path, _arrays())
    doc = json.loads(path.read_text())
    first = next(iter(doc["params"]))
    doc["params"][first]["data"] = doc["params"][first]["data"][::-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="hash mismatch|padding|Invalid"):
        ckpt.load(path)


def test_payload_of_other_arrays_fails_the_content_hash(tmp_path):
    path, other = tmp_path / "c.ckpt.json", tmp_path / "o.ckpt.json"
    ckpt.save(path, _arrays(0))
    ckpt.save(other, _arrays(1))
    doc = json.loads(path.read_text())
    doc["params"] = json.loads(other.read_text())["params"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="content hash mismatch"):
        ckpt.load(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "d.ckpt.json"
    ckpt.save(path, _arrays())
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        ckpt.load(path)


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_version_must_be_the_integer_one(tmp_path, version):
    # True == 1 and 1.0 == 1 in Python, so both used to load as version 1
    path = tmp_path / "d.ckpt.json"
    ckpt.save(path, _arrays())
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as e:
        ckpt.load(path)
    assert str(e.value) == f"{path}: format_version must be one of 1, got {version!r}"


def test_saved_bytes_are_pinned(tmp_path):
    # the file format's bytes: key order, separators, escaping and float
    # spelling all show in the hash
    arrays = {"emb": np.arange(15, dtype=np.float64).reshape(5, 3) / 7,
              "bias": np.linspace(-1, 1, 7, dtype=np.float32),
              "count": np.array([3], dtype=np.int64)}
    meta = {"note": "café", "config": {"lr": 1.5e-3, "layers": [2, None, True]}}
    path = tmp_path / "pinned.ckpt.json"
    ckpt.save(path, arrays, meta)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CHECKPOINT
