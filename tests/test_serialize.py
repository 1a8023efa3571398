"""Round-trip and corruption tests for the binary model format."""

import struct

import numpy as np
import pytest

from pairq.estimator import MseTable, compute_mse_table
from pairq.metrics import estimate_batch
from pairq.quantizer import OPQModel, opq_encode, train_opq
from pairq.serialize import MAGIC, load_model, save_model
from pairq.transform import (
    PairQModel,
    learn_scalar_transform,
    learn_sqdist_transform,
    pairq_encode,
    train_pairq,
)


def f32(arr):
    return np.asarray(arr).astype(np.float32).astype(np.float64)


@pytest.fixture
def tmp_model(tmp_path):
    return str(tmp_path / "model.pairq")


def make_opq(seed=0, dim=7, blocks=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((300, dim)) * np.linspace(0.5, 2.0, dim)
    model = train_opq(x, blocks, 8, outer_iters=2, kmeans_iters=10,
                      seed=seed, pad=True)
    return x, model


class TestRoundTrip:
    def test_opq(self, tmp_model):
        x, model = make_opq()
        save_model(tmp_model, model)
        loaded, mse = load_model(tmp_model)
        assert mse is None
        assert isinstance(loaded, OPQModel)
        assert loaded.input_dim == 7
        assert loaded.converged is None
        assert loaded.codebook.centroids.shape == (4, 8, 2)
        np.testing.assert_array_equal(loaded.rotation, f32(model.rotation))
        np.testing.assert_array_equal(
            loaded.codebook.centroids, f32(model.codebook.centroids)
        )

    def test_opq_with_mse_table(self, tmp_model):
        x, model = make_opq()
        table = compute_mse_table(model, x)
        save_model(tmp_model, model, mse_table=table)
        loaded, back = load_model(tmp_model)
        np.testing.assert_array_equal(back.values, f32(table.values))

    def test_pairq_scalar(self, tmp_model):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((80, 6))
        db = rng.standard_normal((200, 6))
        model = train_pairq(learn_scalar_transform(q), db, 2, 8,
                            outer_iters=1, kmeans_iters=10, seed=0)
        save_model(tmp_model, model)
        loaded, _ = load_model(tmp_model)
        assert isinstance(loaded, PairQModel)
        assert loaded.mode == "scalar"
        assert loaded.transform.source_dim == 6
        assert loaded.transform.dim == 6
        np.testing.assert_array_equal(loaded.transform.matrix,
                                      f32(model.transform.matrix))
        np.testing.assert_array_equal(loaded.transform.pinv,
                                      f32(model.transform.pinv))

    def test_pairq_sqdist_estimates_survive(self, tmp_model):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((120, 5))
        db = rng.standard_normal((400, 5))
        model = train_pairq(learn_sqdist_transform(q), db, 3, 8,
                            outer_iters=1, kmeans_iters=10, seed=0)
        codes = pairq_encode(model, db)
        save_model(tmp_model, model)
        loaded, _ = load_model(tmp_model)
        assert loaded.mode == "sqdist"
        assert loaded.opq.input_dim == 6
        before = estimate_batch(model, q[0], codes, "sqdist")
        after = estimate_batch(loaded, q[0], codes, "sqdist")
        scale = np.abs(before).max()
        np.testing.assert_allclose(after, before, atol=1e-5 * max(scale, 1.0))
        np.testing.assert_array_equal(pairq_encode(loaded, db), codes)

    def test_rejects_unknown_model_type(self, tmp_model):
        with pytest.raises(TypeError, match="unsupported"):
            save_model(tmp_model, {"not": "a model"})

    def test_rejects_mismatched_mse_shape(self, tmp_model):
        _, model = make_opq()
        with pytest.raises(ValueError, match="shape"):
            save_model(tmp_model, model, mse_table=MseTable(values=np.zeros((1, 1))))


class TestCorruption:
    def test_bad_magic(self, tmp_model):
        _, model = make_opq()
        save_model(tmp_model, model)
        with open(tmp_model, "r+b") as fh:
            fh.write(b"NOPE")
        with pytest.raises(ValueError, match="magic"):
            load_model(tmp_model)

    def test_truncated_file(self, tmp_model):
        _, model = make_opq()
        save_model(tmp_model, model)
        with open(tmp_model, "rb") as fh:
            raw = fh.read()
        with open(tmp_model, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(tmp_model)

    def test_trailing_bytes(self, tmp_model):
        _, model = make_opq()
        save_model(tmp_model, model)
        with open(tmp_model, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(tmp_model)

    def test_unknown_flags(self, tmp_model):
        _, model = make_opq()
        save_model(tmp_model, model)
        # The flags int32 sits after magic and the 4+num_blocks header ints.
        offset = len(MAGIC) + 4 * (4 + model.codebook.num_blocks)
        with open(tmp_model, "r+b") as fh:
            fh.seek(offset)
            fh.write(np.asarray([0xFF], dtype="<i4").tobytes())
        with pytest.raises(ValueError, match="flag"):
            load_model(tmp_model)

    def test_unknown_mode(self, tmp_model):
        _, model = make_opq()
        save_model(tmp_model, model)
        with open(tmp_model, "r+b") as fh:
            fh.seek(len(MAGIC))
            fh.write(np.asarray([9], dtype="<i4").tobytes())
        with pytest.raises(ValueError, match="mode"):
            load_model(tmp_model)


# A scalar-mode transform model written field by field from the documented
# layout: n = 3 raw dimensions padded to d = M*s = 4, M = 2 blocks of width
# s = 2, K = 3 codewords, flags = rotation | transform | error-mean table.
GOLDEN_ROTATION = np.eye(4)[[1, 0, 3, 2]]
GOLDEN_CENTROIDS = 0.5 * np.arange(12.0).reshape(2, 3, 2)
GOLDEN_MATRIX = np.diag([2.0, 1.0, 0.5])
GOLDEN_PINV = np.diag([0.5, 1.0, 2.0])
GOLDEN_MSE = 0.25 * np.arange(6.0).reshape(2, 3)


def golden_bytes(widths=(2, 2)):
    def floats(arr):
        return struct.pack(f"<{arr.size}f", *arr.ravel())

    return b"".join([
        b"PAIRQ1",
        struct.pack("<4i", 1, 3, 2, 3),  # mode, n, M, K
        struct.pack("<2i", *widths),
        struct.pack("<i", 7),
        floats(GOLDEN_ROTATION),
        floats(GOLDEN_CENTROIDS),
        struct.pack("<i", 3),
        floats(GOLDEN_MATRIX),
        floats(GOLDEN_PINV),
        floats(GOLDEN_MSE),
    ])


class TestGoldenFile:
    def test_reads_documented_layout_and_writes_it_back(self, tmp_path):
        path = tmp_path / "golden.pairq"
        path.write_bytes(golden_bytes())
        model, mse = load_model(str(path))
        assert isinstance(model, PairQModel) and model.mode == "scalar"
        assert model.transform.source_dim == 3 and model.opq.input_dim == 3
        assert model.opq.codebook.centroids.shape == (2, 3, 2)
        np.testing.assert_array_equal(model.opq.codebook.centroids, GOLDEN_CENTROIDS)
        np.testing.assert_array_equal(model.opq.rotation, GOLDEN_ROTATION)
        np.testing.assert_array_equal(model.transform.matrix, GOLDEN_MATRIX)
        np.testing.assert_array_equal(model.transform.pinv, GOLDEN_PINV)
        np.testing.assert_array_equal(mse.values, GOLDEN_MSE)
        copy = tmp_path / "copy.pairq"
        save_model(str(copy), model, mse_table=mse)
        assert copy.read_bytes() == golden_bytes()

    def test_rejects_unequal_block_widths(self, tmp_path):
        # Widths 1 and 3 still sum to 4, so the section sizes all match.
        path = tmp_path / "unequal.pairq"
        path.write_bytes(golden_bytes(widths=(1, 3)))
        with pytest.raises(ValueError, match="unequal block widths"):
            load_model(str(path))
