import numpy as np
import pytest

from localscores import (
    BoltzmannModel,
    InputError,
    SampleSpace,
    hamming_distance,
    index_hamming_distance,
    index_to_signs,
    indices_to_signs,
    parse_space_spec,
    signs_matrix_to_indices,
    signs_to_index,
)


class TestSampleSpace:
    def test_hypercube_size(self):
        s = SampleSpace.hypercube(3)
        assert s.size == 8 and s.dim == 3

    def test_label_range(self):
        s = SampleSpace.label_range(10)
        assert s.size == 10 and s.kind == "labels"

    def test_enumerated_distinct(self):
        with pytest.raises(InputError):
            SampleSpace.enumerated(["a", "a", "b"])

    def test_minimum_size(self):
        with pytest.raises(InputError):
            SampleSpace.label_range(1)

    def test_spec_string_round_trip(self):
        for spec in ("hypercube:4", "labels:7", "enumerated:3"):
            assert parse_space_spec(spec).spec_string() == spec

    def test_bad_spec(self):
        with pytest.raises(InputError):
            parse_space_spec("torus:3")


class TestHypercubeIndexing:
    def test_coordinate_zero_is_least_significant(self):
        # (+1,-1): coordinate 0 positive -> bit 0 set -> index 1
        assert signs_to_index([1, -1]) == 1
        assert signs_to_index([-1, 1]) == 2

    def test_round_trip(self):
        for i in range(16):
            assert signs_to_index(index_to_signs(i, 4)) == i

    def test_vectorized_round_trip(self):
        idx = np.arange(32)
        assert np.array_equal(signs_matrix_to_indices(indices_to_signs(idx, 5)), idx)

    def test_rejects_non_sign(self):
        with pytest.raises(InputError):
            signs_to_index([1, 0])

    @pytest.mark.parametrize("signs", [[1, 2], [0.5, -1.0]], ids=["two", "half"])
    def test_encoder_rejects_non_sign_entries(self, signs):
        # the batch encoder read every positive entry as +1 and the rest as -1
        for encode in (signs_to_index, lambda s: signs_matrix_to_indices([s])):
            with pytest.raises(InputError, match="must be \\+1/-1"):
                encode(signs)

    @pytest.mark.parametrize("index", [-1, 2 ** 3])
    def test_decoder_rejects_indices_outside_the_cube(self, index):
        # -1 decoded to all +1 and 8 to the signs of 0 with high bits dropped
        for decode in (index_to_signs, lambda i, dim: indices_to_signs([0, i], dim)):
            with pytest.raises(InputError, match="0..7"):
                decode(index, 3)

    @pytest.mark.parametrize("index", [2.5, np.nan, "1"], ids=["half", "nan", "text"])
    def test_decoder_refuses_non_integral_indices(self, index):
        # 2.5 was truncated to 2 by the cast, and decoded as the signs of 2
        for decode in (lambda i: indices_to_signs([i], 3),
                       lambda i: BoltzmannModel.zeros(3).log_f_batch([i])):
            with pytest.raises(InputError, match="must be integers"):
                decode(index)
        assert np.array_equal(indices_to_signs([2.0], 3), indices_to_signs([2], 3))


class TestHammingDistance:
    def test_identity(self):
        assert hamming_distance((1, 1), (1, 1)) == 0

    def test_full_flip(self):
        assert hamming_distance((1, 1), (-1, -1)) == 2

    def test_single_coordinate(self):
        assert hamming_distance((1, -1, 1), (1, 1, 1)) == 1

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.choice([-1, 1], size=6)
            z = rng.choice([-1, 1], size=6)
            assert hamming_distance(y, z) == hamming_distance(z, y)
            assert (hamming_distance(y, z) == 0) == bool(np.all(y == z))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            hamming_distance((1, 1), (1, 1, 1))

    def test_index_form_matches(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            i, j = rng.integers(0, 64, size=2)
            di = index_hamming_distance(int(i), int(j))
            dv = hamming_distance(index_to_signs(int(i), 6), index_to_signs(int(j), 6))
            assert di == dv
