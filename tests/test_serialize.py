"""Round-trip and corruption tests for the binary model format."""

import os
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pairq.estimator import BiasCorrected, MseTable, compute_mse_table
from pairq.linalg import pseudo_inverse, psd_sqrt
from pairq.metrics import estimate_batch
from pairq.quantizer import OPQModel, PQCodebook, opq_encode, train_opq
from pairq.serialize import MAGIC, load_model, save_model
from pairq.transform import (
    PairQModel,
    PairTransform,
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

    def test_training_codes_are_not_written(self, tmp_model):
        # The codes a trained model holds leave the file as it is, and a
        # loaded model holds none.
        x, opq = make_opq()
        rng = np.random.default_rng(3)
        pair = train_pairq(learn_sqdist_transform(rng.standard_normal((60, 7))),
                           x, 4, 8, outer_iters=1, kmeans_iters=10, seed=0)
        for model, inner in ((opq, opq), (pair, pair.opq)):
            assert inner.codes is not None
            save_model(tmp_model, model)
            with open(tmp_model, "rb") as fh:
                written = fh.read()
            inner.codes = None
            save_model(tmp_model, model)
            with open(tmp_model, "rb") as fh:
                assert fh.read() == written
            loaded, _ = load_model(tmp_model)
            loaded = loaded.opq if isinstance(loaded, PairQModel) else loaded
            assert loaded.codes is None

    def test_rejects_unknown_model_type(self, tmp_model):
        with pytest.raises(TypeError, match="unsupported"):
            save_model(tmp_model, {"not": "a model"})

    def test_rejects_mismatched_mse_shape(self, tmp_model):
        _, model = make_opq()
        with pytest.raises(ValueError, match="shape"):
            save_model(tmp_model, model, mse_table=MseTable(values=np.zeros((1, 1))))


class TestRoundTripProperty:
    """save -> load -> save writes the same bytes, and the loaded model
    scores like the one in memory up to float32 rounding, for every model
    kind, block layout and optional section."""

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["opq", "scalar", "sqdist"]),
        blocks=st.integers(1, 4),
        width=st.integers(1, 3),
        divisible=st.booleans(),
        k=st.integers(1, 8),
        with_mse=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_save_load_save(self, kind, blocks, width, divisible, k, with_mse, seed):
        # The quantizer sees the raw dimension, plus one lifted column for
        # sqdist; ``divisible`` says whether ``blocks`` divides it.
        assume(divisible or blocks > 1)
        quantizer_dim = blocks * width + (0 if divisible else 1)
        dim = quantizer_dim - (1 if kind == "sqdist" else 0)
        assume(dim >= 1)
        rng = np.random.default_rng(seed)
        db = rng.standard_normal((40, dim)) * rng.uniform(0.5, 2.0, dim)
        queries = rng.standard_normal((30, dim))
        opts = dict(outer_iters=1, kmeans_iters=4, seed=seed)
        if kind == "opq":
            model = train_opq(db, blocks, k, pad=True, **opts)
            codes = opq_encode(model, db)
        else:
            learn = {"scalar": learn_scalar_transform,
                     "sqdist": learn_sqdist_transform}[kind]
            model = train_pairq(learn(queries), db, blocks, k, **opts)
            codes = pairq_encode(model, db)
        mse = MseTable(values=rng.random((blocks, k))) if with_mse else None

        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            save_model(first, model, mse_table=mse)
            loaded, loaded_mse = load_model(first)
            save_model(second, loaded, mse_table=loaded_mse)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

        assert (loaded_mse is None) == (mse is None)
        pairs = [(model, loaded, kind)] if kind != "opq" else [
            (model, loaded, "scalar"), (model, loaded, "sqdist")]
        if kind == "opq" and mse is not None:
            pairs.append((BiasCorrected(opq=model, mse=mse),
                          BiasCorrected(opq=loaded, mse=loaded_mse), "sqdist"))
        for before_method, after_method, est_kind in pairs:
            for q in queries[:2]:
                before = estimate_batch(before_method, q, codes, est_kind)
                after = estimate_batch(after_method, q, codes, est_kind)
                scale = max(np.abs(before).max(), 1.0)
                np.testing.assert_allclose(after, before, rtol=0, atol=1e-5 * scale)


class TestAtomicSave:
    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.pairq"
        x, model = make_opq()
        save_model(str(path), model)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="shape"):
            save_model(str(path), model, mse_table=MseTable(values=np.zeros((1, 1))))

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("pairq.serialize.os.replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_model(str(path), model, mse_table=compute_mse_table(model, x))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.pairq"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "model.pairq"
        path.write_bytes(b"old")
        _, model = make_opq()
        save_model(path, model)
        assert isinstance(load_model(path)[0], OPQModel)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.pairq"]

    @pytest.mark.parametrize("existing", [True, False])
    def test_symlink_is_written_through(self, tmp_path, existing):
        _, model = make_opq()
        save_model(tmp_path / "plain.pairq", model)
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "model.pairq"
        if existing:
            target.write_bytes(b"old")
        link = tmp_path / "link.pairq"
        link.symlink_to(target)
        save_model(link, model)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "plain.pairq").read_bytes()
        assert [p.name for p in (tmp_path / "real").iterdir()] == ["model.pairq"]

    @pytest.mark.parametrize("kind", ["fifo", "directory", "link to a fifo",
                                      "link loop"])
    def test_refuses_an_output_that_is_not_a_regular_file(self, tmp_path, kind):
        _, model = make_opq()
        fifo = tmp_path / "fifo"
        out = fifo
        if kind == "directory":
            out = tmp_path / "dir"
            out.mkdir()
        elif kind == "link loop":
            out = tmp_path / "a"
            out.symlink_to(tmp_path / "b")
            (tmp_path / "b").symlink_to(out)
        else:
            os.mkfifo(fifo)
        if kind == "link to a fifo":
            out = tmp_path / "link"
            out.symlink_to(fifo)
        before = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(ValueError, match="is not a regular file"):
            save_model(out, model)
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        if kind.startswith("link"):
            assert out.is_symlink()
        if "fifo" in kind:
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("section", ["rotation", "centroids", "mse"])
    def test_non_finite_float(self, tmp_model, section, bad):
        x, model = make_opq()
        save_model(tmp_model, model, mse_table=compute_mse_table(model, x))
        d, num_blocks = model.dim, model.codebook.num_blocks
        rotation_at = len(MAGIC) + 4 * (4 + num_blocks + 1)
        offset = {
            "rotation": rotation_at + 4 * 3,
            "centroids": rotation_at + 4 * d * d + 4 * 5,
            "mse": rotation_at + 4 * d * d + 4 * model.codebook.centroids.size + 4,
        }[section]
        with open(tmp_model, "r+b") as fh:
            fh.seek(offset)
            fh.write(np.asarray([bad], dtype="<f4").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            load_model(tmp_model)

    def test_non_orthogonal_rotation(self, tmp_model):
        _, model = make_opq()
        save_model(tmp_model, model)
        rotation_at = len(MAGIC) + 4 * (4 + model.codebook.num_blocks + 1)
        with open(tmp_model, "r+b") as fh:
            fh.seek(rotation_at + 4 * 5)
            entry = np.frombuffer(fh.read(4), dtype="<f4")[0]
            fh.seek(rotation_at + 4 * 5)
            fh.write(np.asarray([entry + 1e-3], dtype="<f4").tobytes())
        with pytest.raises(ValueError, match="not orthogonal"):
            load_model(tmp_model)

    def test_large_orthogonal_rotation_loads(self, tmp_model):
        # A random orthogonal matrix at dimension 256, stored at float32,
        # stays inside the orthogonality tolerance.
        rng = np.random.default_rng(5)
        rotation, _ = np.linalg.qr(rng.standard_normal((256, 256)))
        book = PQCodebook(centroids=rng.standard_normal((8, 2, 32)))
        model = OPQModel(rotation=rotation, codebook=book, input_dim=256)
        save_model(tmp_model, model)
        loaded, _ = load_model(tmp_model)
        np.testing.assert_array_equal(loaded.rotation, f32(rotation))

    @pytest.mark.parametrize("bad_pinv", ["scaled", "zero", "matrix"])
    def test_inconsistent_pinv(self, tmp_model, bad_pinv):
        rng = np.random.default_rng(6)
        model = train_pairq(learn_sqdist_transform(rng.standard_normal((50, 5))),
                            rng.standard_normal((100, 5)), 3, 4,
                            outer_iters=1, kmeans_iters=5, seed=0)
        t = model.transform
        t.pinv = {"scaled": 1.05 * t.pinv, "zero": np.zeros_like(t.pinv),
                  "matrix": t.matrix}[bad_pinv]
        # save_model parses its own bytes with load_model's rules, so the
        # refusal comes at save, and nothing is written.
        with pytest.raises(ValueError, match="pinv is inconsistent"):
            save_model(tmp_model, model)
        assert os.listdir(os.path.dirname(tmp_model)) == []

    def test_inconsistent_golden_pinv(self, tmp_path):
        path = tmp_path / "golden.pairq"
        path.write_bytes(golden_bytes(pinv=np.diag([0.5, 1.0, 1.0])))
        with pytest.raises(ValueError, match="pinv is inconsistent"):
            load_model(str(path))

    def test_ill_conditioned_transform_loads(self, tmp_model):
        # A root whose eigenvalues reach down to psd_sqrt's clamp (condition
        # number 10⁵) at the lifted dimension of 128-dim sqdist data, and
        # rank deficient: the float32 pinv stays inside the tolerance.
        rng = np.random.default_rng(7)
        basis, _ = np.linalg.qr(rng.standard_normal((129, 129)))
        spectrum = np.concatenate([np.logspace(0, -10.0 + 1e-3, 109), np.zeros(20)])
        moment = (basis * spectrum) @ basis.T
        root = psd_sqrt(moment)
        transform = PairTransform(mode="sqdist", source_dim=128, matrix=root,
                                  pinv=pseudo_inverse(root))
        model = train_pairq(transform, rng.standard_normal((64, 128)), 3, 4,
                            outer_iters=0, kmeans_iters=2, seed=0)
        save_model(tmp_model, model)
        loaded, _ = load_model(tmp_model)
        np.testing.assert_array_equal(loaded.transform.pinv, f32(transform.pinv))

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


def golden_bytes(widths=None, pinv=GOLDEN_PINV, mode=1, n=3, flags=None,
                 centroids=GOLDEN_CENTROIDS, matrix=GOLDEN_MATRIX, mse=GOLDEN_MSE,
                 rotation=GOLDEN_ROTATION):
    """The golden file, or a variant with some fields replaced; no
    transform or error-mean section when ``matrix`` or ``mse`` is None.
    The widths and flags default to those the centroids and sections give."""
    def floats(arr):
        return struct.pack(f"<{arr.size}f", *arr.ravel())

    if widths is None:
        widths = (centroids.shape[2],) * len(centroids)
    if flags is None:
        flags = 1 | (0 if matrix is None else 2) | (0 if mse is None else 4)

    parts = [
        b"PAIRQ1",
        struct.pack("<4i", mode, n, len(widths), centroids.shape[1]),  # mode, n, M, K
        struct.pack(f"<{len(widths)}i", *widths),
        struct.pack("<i", flags),
        floats(rotation),
        floats(centroids),
    ]
    if matrix is not None:
        parts += [struct.pack("<i", len(matrix)), floats(matrix), floats(pinv)]
    if mse is not None:
        parts.append(floats(mse))
    return b"".join(parts)


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

    @pytest.mark.parametrize("fields, message", [
        # Mode 0 with the transform flag and section must not load as a
        # squared-distance transform model.
        (dict(mode=0), "flags 0x7 do not fit mode 0"),
        # The transform dimension is n = 3 in scalar mode, n + 1 in sqdist.
        (dict(matrix=np.eye(4), pinv=np.eye(4)), "corrupt transform: dimension 4"),
        (dict(mode=2), "corrupt transform: dimension 3"),
        # d = M·s = 4 must be n padded to a multiple of M = 2 blocks.
        (dict(mode=0, n=1, flags=5, matrix=None), "quantizer dimension 4"),
        (dict(mode=0, n=9, flags=5, matrix=None), "quantizer dimension 4"),
        (dict(widths=(0, 0)), "non-positive block width"),
    ])
    def test_rejects_inconsistent_header(self, tmp_path, fields, message):
        path = tmp_path / "bad.pairq"
        path.write_bytes(golden_bytes(**fields))
        with pytest.raises(ValueError, match=message):
            load_model(str(path))

    def test_codebook_size_is_at_most_one_byte(self, tmp_path):
        # One block of width 1 over one raw dimension: K = 256 loads and
        # encodes its last centroid as 255; K = 257 would wrap to code 0.
        def one_block(k):
            return golden_bytes(
                widths=(1,), mode=0, n=1, flags=1, rotation=np.eye(1),
                centroids=np.arange(float(k)).reshape(1, k, 1), matrix=None, mse=None,
            )

        path = tmp_path / "k.pairq"
        path.write_bytes(one_block(256))
        model, _ = load_model(str(path))
        np.testing.assert_array_equal(opq_encode(model, [[290.0]]), [[255]])
        path.write_bytes(one_block(257))
        message = r"corrupt header: codebook_size must be in \[1, 256\], got 257"
        with pytest.raises(ValueError, match=message):
            load_model(str(path))


def golden_model(mode=1, n=3, rotation=GOLDEN_ROTATION, centroids=GOLDEN_CENTROIDS,
                 matrix=GOLDEN_MATRIX, pinv=GOLDEN_PINV, mse=GOLDEN_MSE):
    """The in-memory model and error-mean table that ``golden_bytes`` with
    the same fields writes, built without checking any of them."""
    opq = OPQModel(rotation=rotation, codebook=PQCodebook(centroids=centroids),
                   input_dim=n + 1 if mode == 2 else n)
    model = opq if matrix is None else PairQModel(
        transform=PairTransform(mode="scalar" if mode == 1 else "sqdist",
                                source_dim=n, matrix=matrix, pinv=pinv),
        opq=opq,
    )
    return model, None if mse is None else MseTable(values=mse)


class TestSaveRefusesWhatLoadRejects:
    @pytest.mark.parametrize("fields, message", [
        (dict(centroids=np.zeros((2, 257, 2)), mse=None),
         r"codebook_size must be in \[1, 256\], got 257"),
        (dict(mode=0, n=1, matrix=None),
         "quantizer dimension 4 is not input dimension 1 padded to 2 blocks"),
        (dict(centroids=np.where(GOLDEN_CENTROIDS == 2.0, np.nan, GOLDEN_CENTROIDS)),
         "non-finite"),
        (dict(rotation=2 * np.eye(4)), "rotation is not orthogonal"),
        (dict(rotation=np.eye(3)), "rotation is not orthogonal"),
    ], ids=["k257", "input-dim", "nan-centroid", "scaled-rotation", "3x3-rotation"])
    def test_same_rule_and_nothing_written(self, tmp_path, fields, message):
        bad = tmp_path / "bad.pairq"
        bad.write_bytes(golden_bytes(**fields))
        with pytest.raises(ValueError, match=message) as at_load:
            load_model(str(bad))

        path = tmp_path / "model.pairq"
        path.write_bytes(golden_bytes())
        model, mse = golden_model(**fields)
        with pytest.raises(ValueError, match=message) as at_save:
            save_model(str(path), model, mse_table=mse)
        assert str(at_save.value) == f"model would not load: {at_load.value}"
        assert path.read_bytes() == golden_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.pairq", "model.pairq"]
