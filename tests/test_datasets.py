"""Tests for vector file IO and synthetic data generation."""

import hashlib

import numpy as np
import pytest

from pairq import datasets
from pairq.datasets import (
    SyntheticSpec,
    _factor,
    gen_synthetic,
    read_fvecs,
    read_ivecs,
    second_moment_condition,
    write_fvecs,
    write_ivecs,
)
from pairq.transform import learn_scalar_transform


class TestFvecs:
    def test_round_trip_is_bit_identical(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        rng = np.random.default_rng(0)
        data = rng.standard_normal((17, 9)).astype(np.float32)
        write_fvecs(path, data)
        back = read_fvecs(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, data)

    def test_write_casts_to_float32(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        data = np.array([[0.1, 0.2]])
        write_fvecs(path, data)
        np.testing.assert_array_equal(read_fvecs(path), data.astype(np.float32))

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        write_fvecs(path, np.zeros((0, 4), dtype=np.float32))
        back = read_fvecs(path)
        assert back.shape == (0, 0)

    def test_known_binary_layout(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        write_fvecs(path, np.array([[1.5, -2.0]], dtype=np.float32))
        with open(path, "rb") as fh:
            raw = fh.read()
        assert np.frombuffer(raw[:4], "<i4")[0] == 2
        np.testing.assert_array_equal(
            np.frombuffer(raw[4:], "<f4"), [1.5, -2.0]
        )

    def test_mixed_dimensions_error_names_record(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        rec1 = np.asarray([2], "<i4").tobytes() + np.asarray([0, 0], "<f4").tobytes()
        rec2 = np.asarray([5], "<i4").tobytes() + np.asarray([0, 0], "<f4").tobytes()
        with open(path, "wb") as fh:
            fh.write(rec1 + rec2)
        with pytest.raises(ValueError, match="record 1 has dimension 5"):
            read_fvecs(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        write_fvecs(path, np.ones((3, 4), dtype=np.float32))
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_fvecs(path)

    def test_non_finite_values_warn_but_load(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        data = np.array([[1.0, np.inf], [np.nan, 2.0]], dtype=np.float32)
        write_fvecs(path, data)
        with pytest.warns(RuntimeWarning, match="non-finite"):
            back = read_fvecs(path)
        np.testing.assert_array_equal(back[0, 0], 1.0)
        assert np.isinf(back[0, 1])
        assert np.isnan(back[1, 0])

    def test_bad_dimension_prefix(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        with open(path, "wb") as fh:
            fh.write(np.asarray([-3, 0], "<i4").tobytes())
        with pytest.raises(ValueError, match="dimension -3"):
            read_fvecs(path)


def reference_records(data, dtype) -> bytes:
    """The file bytes of one whole (N, dim + 1) record table."""
    n, dim = data.shape
    body = np.empty((n, dim + 1), dtype="<i4")
    body[:, 0] = dim
    body[:, 1:] = np.ascontiguousarray(data, dtype=dtype).view("<i4")
    return body.tobytes()


def write_raw(path, records):
    """A file of (dimension field, values) records as given."""
    with open(path, "wb") as fh:
        for dim, values in records:
            fh.write(np.asarray([dim], "<i4").tobytes())
            fh.write(np.asarray(values, "<f4").tobytes())


class TestChunkedIO:
    """Reader and writer go through the file a chunk of ``CHUNK_ENTRIES``
    values at a time; a small constant makes every file span chunks."""

    # dim 3 records are 4 values, so chunks are 10 records.
    ENTRIES = 40

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(datasets, "CHUNK_ENTRIES", self.ENTRIES)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 20, 29, 31])
    def test_fvecs_bytes_equal_one_whole_table(self, tmp_path, n):
        path = str(tmp_path / "v.fvecs")
        data = np.random.default_rng(n).standard_normal((n, 3))
        write_fvecs(path, data)
        with open(path, "rb") as fh:
            assert fh.read() == reference_records(data, "<f4")
        back = read_fvecs(path)
        if n:
            np.testing.assert_array_equal(back, data.astype(np.float32))

    @pytest.mark.parametrize("n", [1, 9, 10, 11, 20, 31])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_ivecs_bytes_equal_one_whole_table(self, tmp_path, n, dtype):
        path = str(tmp_path / "c.ivecs")
        codes = np.random.default_rng(n).integers(0, 256, size=(n, 3)).astype(dtype)
        write_ivecs(path, codes)
        with open(path, "rb") as fh:
            assert fh.read() == reference_records(codes, "<i4")
        np.testing.assert_array_equal(read_ivecs(path), codes)

    def test_ivecs_range_is_checked_before_anything_is_written(self, tmp_path):
        path = tmp_path / "c.ivecs"
        codes = np.zeros((25, 3), dtype=np.int64)
        codes[-1, -1] = 2 ** 40
        with pytest.raises(ValueError, match="int32"):
            write_ivecs(str(path), codes)
        assert not path.exists()

    def test_bad_dimension_in_a_later_chunk_names_the_file_record(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        records = [(3, [0, 0, 0])] * 25
        records[23] = (7, [0, 0, 0])
        write_raw(path, records)
        with pytest.raises(ValueError, match="record 23 has dimension 7, expected 3"):
            read_fvecs(path)

    def test_truncated_file_longer_than_one_chunk(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        write_fvecs(path, np.ones((25, 3), dtype=np.float32))
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[:-4])
        with pytest.raises(ValueError, match="truncated"):
            read_fvecs(path)


class TestIvecs:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "c.ivecs")
        rng = np.random.default_rng(1)
        codes = rng.integers(0, 256, size=(31, 8)).astype(np.int32)
        write_ivecs(path, codes)
        back = read_ivecs(path)
        assert back.dtype == np.int32
        np.testing.assert_array_equal(back, codes)

    def test_rejects_floats(self, tmp_path):
        with pytest.raises(ValueError, match="integers"):
            write_ivecs(str(tmp_path / "c.ivecs"), np.zeros((2, 2)))

    def test_rejects_overflow(self, tmp_path):
        with pytest.raises(ValueError, match="int32"):
            write_ivecs(str(tmp_path / "c.ivecs"),
                        np.array([[2 ** 40]], dtype=np.int64))


class TestGenSynthetic:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(dim=6, num_database=100, num_train_queries=40,
                             num_eval_queries=10, query_decay=2.0)
        a = gen_synthetic(spec, seed=5)
        b = gen_synthetic(spec, seed=5)
        assert a.database.shape == (100, 6)
        assert a.train_queries.shape == (40, 6)
        assert a.eval_queries.shape == (10, 6)
        np.testing.assert_array_equal(a.database, b.database)
        np.testing.assert_array_equal(a.train_queries, b.train_queries)
        np.testing.assert_array_equal(a.eval_queries, b.eval_queries)
        c = gen_synthetic(spec, seed=6)
        assert not np.array_equal(a.database, c.database)

    def test_isotropic_sample_covariance(self):
        spec = SyntheticSpec(dim=8, num_database=20000, num_train_queries=0,
                             num_eval_queries=0)
        data = gen_synthetic(spec, seed=0)
        cov = data.database.T @ data.database / 20000
        assert np.abs(cov - np.eye(8)).max() < 0.06

    def test_decay_controls_condition_number(self):
        spec = SyntheticSpec(dim=10, num_database=0, num_train_queries=20000,
                             num_eval_queries=0, query_decay=np.log(50.0))
        data = gen_synthetic(spec, seed=1)
        cond = second_moment_condition(data.train_queries)
        assert 25.0 < cond < 100.0

    @pytest.mark.parametrize("dim, n", [(64, 20000), (100, 12000), (7, 5001)])
    def test_chunked_draws_equal_the_whole_array_formula(self, dim, n):
        # 64 and 100 columns span two chunks and a tail; 7 is one chunk.
        spec = SyntheticSpec(dim=dim, num_database=n, num_train_queries=300,
                             num_eval_queries=2, database_decay=1.5,
                             query_decay=4.0)
        rng = np.random.default_rng(9)
        db_factor = _factor(dim, spec.database_decay, rng)
        q_factor = _factor(dim, spec.query_decay, rng)
        expected = [
            rng.standard_normal((n, dim)) @ db_factor.T,
            rng.standard_normal((300, dim)) @ q_factor.T,
            rng.standard_normal((2, dim)) @ q_factor.T,
        ]
        data = gen_synthetic(spec, seed=9)
        got = [data.database, data.train_queries, data.eval_queries]

        def digest(arr):
            return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

        assert [digest(a) for a in got] == [digest(a) for a in expected]

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="dim"):
            gen_synthetic(SyntheticSpec(dim=0, num_database=1,
                                        num_train_queries=1, num_eval_queries=1))
        with pytest.raises(ValueError, match="num_database"):
            gen_synthetic(SyntheticSpec(dim=2, num_database=-1,
                                        num_train_queries=1, num_eval_queries=1))


class TestSecondMomentCondition:
    def test_isotropic_is_near_one(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((50000, 4))
        assert second_moment_condition(q) < 1.2

    def test_exact_identity(self):
        assert second_moment_condition(2.0 * np.eye(4)) == 1.0

    def test_rank_deficient_is_infinite(self):
        q = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert second_moment_condition(q) == np.inf

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)])
    def test_no_queries_is_infinite(self, shape):
        # An empty vector file reads as (0, 0), with no dimension to keep.
        assert second_moment_condition(np.empty(shape)) == np.inf

    def test_fewer_queries_than_dimensions_is_infinite(self):
        # Three queries span at most three of four dimensions. Rounding
        # leaves the fourth eigenvalue of the moment at 3.4e-17, not 0;
        # the rank rule must still count that direction as missing.
        q = np.random.default_rng(0).standard_normal((3, 4))
        assert second_moment_condition(q) == np.inf

    def test_infinite_exactly_when_the_transform_drops_a_direction(self):
        # One rank rule: the condition is infinite exactly when the learned
        # scalar transform keeps fewer directions than the query dimension.
        # The kept rank is the trace of the projector pinv @ matrix.
        rng = np.random.default_rng(11)
        seen = {True: 0, False: 0}
        for _ in range(300):
            dim = int(rng.integers(1, 7))
            count = int(rng.integers(1, 10))
            q = rng.standard_normal((count, dim)) * 10.0 ** rng.integers(-3, 4)
            if dim > 1 and rng.random() < 0.3:
                # A nearly repeated column: a moment eigenvalue near the clamp.
                q[:, -1] = q[:, 0] + 10.0 ** rng.uniform(-7, -3) * q[:, -1]
            t = learn_scalar_transform(q)
            kept = round(float(np.trace(t.pinv @ t.matrix)))
            dropped = kept < dim
            assert (second_moment_condition(q) == np.inf) == dropped
            seen[dropped] += 1
        assert min(seen.values()) > 50
