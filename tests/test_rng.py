"""The uniform/normal stream contract: draw i depends only on (seed, i)."""

import numpy as np
import pytest

from dynhd.rng import MAX_SEED, TWO_PI, UniformStream, check_seed

# Pinned first draws for seed=123, derived in test_matches_raw_bit_outputs
# below; they guard against silent changes to the stream definition.
SEED123_UNIFORMS = [
    0.5170052385149787, 0.18380038030745394, 0.2128372644551676,
    0.20996920348350878, 0.3628162495103908, 0.10630955649437224,
]
SEED123_NORMALS = [
    0.48746722304619483, 1.1035735810564709, 0.17218290660420293,
    0.6700698406551661,
]


def test_matches_raw_bit_outputs():
    # Independent derivation: uniform i is raw 64-bit output i, top 53 bits,
    # scaled to [0, 1).
    raw = np.random.Philox(key=123).random_raw(6)
    expect = np.array([(int(r) >> 11) * 2.0 ** -53 for r in raw])
    got = UniformStream(123).uniforms(6)
    np.testing.assert_array_equal(got, expect)
    np.testing.assert_array_equal(got, np.array(SEED123_UNIFORMS))


def test_normals_match_scalar_paired_transform():
    u = [(int(r) >> 11) * 2.0 ** -53
         for r in np.random.Philox(key=123).random_raw(4)]
    expect = []
    for i in range(0, 4, 2):
        r = np.sqrt(-2.0 * np.log1p(-u[i]))
        expect.append(r * np.cos(TWO_PI * u[i + 1]))
        expect.append(r * np.sin(TWO_PI * u[i + 1]))
    got = UniformStream(123).normals(4)
    np.testing.assert_array_equal(got, np.array(expect))
    np.testing.assert_array_equal(got, np.array(SEED123_NORMALS))


def test_odd_normal_count_consumes_full_pair():
    a = UniformStream(7)
    a.normals(3)
    assert a.position == 4
    # the continuation must match a clean stream offset by 4 uniforms
    b = UniformStream(7)
    b.uniforms(4)
    np.testing.assert_array_equal(a.uniforms(5), b.uniforms(5))


@pytest.mark.parametrize("position", [0, 1, 2, 3, 4, 5, 7, 8, 13, 100])
def test_replay_from_any_position(position):
    full = UniformStream(99).uniforms(position + 16)
    resumed = UniformStream(99, position=position)
    np.testing.assert_array_equal(resumed.uniforms(16), full[position:])


def test_position_tracks_consumption():
    s = UniformStream(1)
    s.uniforms(3)
    s.normals(4)
    s.phases(2)
    assert s.position == 3 + 4 + 2


def test_phases_are_scaled_uniforms_in_range():
    s = UniformStream(42)
    expect = TWO_PI * UniformStream(42).uniforms(1000)
    got = s.phases(1000)
    np.testing.assert_array_equal(got, expect)
    assert np.all(got >= 0.0) and np.all(got < TWO_PI)


def test_same_seed_same_stream_different_seed_differs():
    a = UniformStream(5).uniforms(32)
    b = UniformStream(5).uniforms(32)
    c = UniformStream(6).uniforms(32)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_max_seed_accepted():
    assert check_seed(MAX_SEED) == MAX_SEED
    UniformStream(MAX_SEED).uniforms(4)


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1])
def test_out_of_range_seed_rejected(seed):
    with pytest.raises(ValueError):
        check_seed(seed)


@pytest.mark.parametrize("seed", [2.9, 2.0, True, False, "7", None,
                                  np.float64(3.0), np.bool_(True)])
def test_non_integer_seed_rejected_by_name(seed):
    with pytest.raises(ValueError) as exc:
        check_seed(seed, "split_seed")
    assert str(exc.value) == f"split_seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(MAX_SEED),
                                  np.int8(3)])
def test_numpy_integer_seed_is_returned_as_int(seed):
    checked = check_seed(seed)
    assert type(checked) is int and checked == seed


def test_negative_position_and_counts_rejected():
    with pytest.raises(ValueError):
        UniformStream(0, position=-1)
    s = UniformStream(0)
    with pytest.raises(ValueError):
        s.uniforms(-1)
    with pytest.raises(ValueError):
        s.normals(-2)
