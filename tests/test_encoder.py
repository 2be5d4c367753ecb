"""Encoding formula, batch semantics, and dimension regeneration."""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import dynhd.encoder
from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch,
                           encode_blocks, init_encoder, reencode_dims,
                           regenerate_dims, replay_encoder)
from dynhd.model import (REPR_CHARS, ClassModel, EncoderState, RegenPlan,
                         load_model, save_model)
from dynhd.rng import TWO_PI, normal_uniforms, paired_normals, uniforms


def fold_projection(feats, bases):
    """feats @ bases.T in the encoder's stated order, without einsum: each
    entry the left-to-right sum ((0 + f_0 B_i0) + f_1 B_i1) + ..., one
    np.multiply and one np.add per feature.  ``feats`` is (N, n) or (n,)."""
    feats = np.asarray(feats, dtype=np.float64)
    x = np.zeros(feats.shape[:-1] + bases.shape[:1])
    for k in range(bases.shape[1]):
        x = np.add(x, np.multiply(feats[..., k, None], bases[:, k]))
    return x


def half_sine(a):
    """S(a) = tan(a) / (1 + tan(a)^2), which equals sin(2a) / 2."""
    t = np.tan(a)
    return t / (1.0 + t * t)


def fold_encode(feats, bases, phases):
    """The encoding every kernel path must reproduce bit for bit: the
    paper's cos(x + c) * sin(x) in its one-tangent form
    S(x + c/2) - S(c/2), x the fold above."""
    x = fold_projection(feats, bases)
    return half_sine(x + phases / 2) - half_sine(phases / 2)


def _reference_regenerate(bases, phases, seed, position, indices):
    """The per-dimension draw loop from ``position`` of the seed's stream:
    per index (ascending) the row's normals, then its phase.  The batched
    ``regenerate_dims`` must equal it bit for bit.  Returns (bases, phases,
    stream position)."""
    bases, phases = bases.copy(), phases.copy()
    n = bases.shape[1]
    for i in indices:
        u = uniforms(seed, position, normal_uniforms(n) + 1)
        position += u.size
        bases[i] = paired_normals(u[:-1])[:n]
        phases[i] = TWO_PI * u[-1]
    return bases, phases, position


def plan_for(e, indices):
    idx = np.asarray(sorted(indices), dtype=np.int64)
    return RegenPlan(idx, np.zeros(e.dim), "insignificant",
                     idx.size / e.dim if e.dim else 0.0)


class TestInitEncoder:
    def test_same_seed_bit_identical(self):
        a = init_encoder(7, 2, 4)
        b = init_encoder(7, 2, 4)
        np.testing.assert_array_equal(a.bases, b.bases)
        np.testing.assert_array_equal(a.phases, b.phases)
        assert a.draw_counter == b.draw_counter

    def test_different_seed_differs(self):
        a = init_encoder(7, 2, 4)
        b = init_encoder(8, 2, 4)
        assert not np.array_equal(a.bases, b.bases)

    def test_draw_order_is_bases_then_phases(self):
        e = init_encoder(11, 3, 5)
        # 15 normals take 16 uniforms; the 5 phases follow them
        normals = paired_normals(uniforms(11, 0, 16))[:15]
        np.testing.assert_array_equal(e.bases, normals.reshape(5, 3))
        np.testing.assert_array_equal(e.phases, TWO_PI * uniforms(11, 16, 5))
        assert e.draw_counter == 16 + 5

    def test_phases_in_range(self):
        e = init_encoder(3, 2, 1000)
        assert np.all(e.phases >= 0.0) and np.all(e.phases < TWO_PI)

    def test_moment_sanity(self):
        # law-of-large-numbers check on the Gaussian bases
        e = init_encoder(123, 1, 100000)
        assert abs(float(e.bases.mean())) < 0.02
        assert abs(float(e.bases.var()) - 1.0) < 0.05

    @pytest.mark.parametrize("n,dim", [(0, 4), (4, 0), (-1, 4)])
    def test_rejects_nonpositive_sizes(self, n, dim):
        with pytest.raises(ValueError, match="n and dim must be at least 1"):
            init_encoder(1, n, dim)

    @pytest.mark.parametrize("n, dim, message", [
        (2.0, 8, "n must be an integer, got 2.0"),
        (2, 8.0, "dim must be an integer, got 8.0"),
        (True, 8, "n must be an integer, got True"),
        (2, "8", "dim must be an integer, got '8'")])
    def test_non_integer_shape_rejected(self, n, dim, message):
        with pytest.raises(ValueError) as exc:
            init_encoder(1, n, dim)
        assert str(exc.value) == message

    def test_numpy_integer_shape_is_accepted(self):
        e = init_encoder(1, np.int64(2), np.int32(8))
        assert e.bases.tobytes() == init_encoder(1, 2, 8).bases.tobytes()
        assert type(e.draw_counter) is int and e.draw_counter == 24

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "1"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError) as exc:
            init_encoder(seed, 2, 8)
        assert str(exc.value) == f"seed must be an integer, got {seed!r}"

    def test_numpy_integer_seed_is_stored_as_int(self, tmp_path):
        e = init_encoder(np.int64(5), 2, 8)
        assert type(e.seed) is int and e.seed == 5
        assert e.bases.tobytes() == init_encoder(5, 2, 8).bases.tobytes()
        e = regenerate_dims(e, plan_for(e, [1, 6]))
        path = os.path.join(tmp_path, "m.json")
        save_model(path, e, ClassModel(np.zeros((2, 8)), ["a", "b"]))
        restored, _, _ = load_model(path)
        assert restored.seed == 5 and restored.draw_counter == e.draw_counter
        assert restored.bases.tobytes() == e.bases.tobytes()
        assert restored.phases.tobytes() == e.phases.tobytes()


class TestEncode:
    def test_zero_input_encodes_to_zero(self):
        # Exactly +0.0: S(c/2) - S(c/2) is +0.0 whatever the phase, where
        # the product form gave -0.0 wherever cos(c) < 0.
        e = init_encoder(5, 4, 257)
        assert np.any(np.cos(e.phases) < 0.0)
        zeros = np.zeros((BLOCK_ROWS + 3, 4))
        plan = plan_for(e, range(257))
        for h in (encode(e, zeros[0]), encode_batch(e, zeros),
                  reencode_dims(regenerate_dims(e, plan), zeros,
                                np.ones((BLOCK_ROWS + 3, 257)), plan)):
            assert h.tobytes() == bytes(h.nbytes)

    def test_one_tangent_per_entry_and_no_sine_or_cosine(self, monkeypatch):
        calls = []

        class CountingNumpy:
            def __getattr__(self, name):
                fn = getattr(np, name)
                if name not in ("tan", "sin", "cos"):
                    return fn

                def counting(x, *args, **kwargs):
                    calls.append((name, np.shape(x)))
                    return fn(x, *args, **kwargs)
                return counting

        e = init_encoder(5, 3, 40)
        feats = np.ones((BLOCK_ROWS + 1, 3))
        monkeypatch.setattr(dynhd.encoder, "np", CountingNumpy())
        encode_batch(e, feats)
        # tan(c/2) once per call, then one pass per row block
        assert calls == [("tan", (40,)), ("tan", (BLOCK_ROWS, 40)),
                         ("tan", (1, 40))]

    def test_quarter_pi_closed_form(self):
        # dot(B_i, F) = pi/4 with zero phase gives cos(pi/4)*sin(pi/4) = 1/2
        e = EncoderState(np.array([[np.pi / 4.0]]), np.array([0.0]),
                         seed=0, regen_history=[])
        h = encode(e, np.array([1.0]))
        assert h[0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        e = init_encoder(42, 3, 64)
        f = np.array([1.0, -1.0, 0.5])
        h = encode(e, f)
        for i in range(e.dim):
            x = sum(float(e.bases[i, j]) * float(f[j]) for j in range(3))
            expect = math.cos(x + float(e.phases[i])) * math.sin(x)
            assert h[i] == pytest.approx(expect, abs=1e-12)

    def test_output_in_unit_interval(self):
        e = init_encoder(9, 6, 512)
        rng = np.random.Generator(np.random.Philox(key=4))
        for _ in range(20):
            h = encode(e, rng.standard_normal(6) * 10.0)
            assert np.all(h >= -1.0) and np.all(h <= 1.0)

    def test_rejects_wrong_length(self):
        e = init_encoder(5, 4, 8)
        with pytest.raises(ValueError):
            encode(e, np.zeros(3))

    def test_rejects_non_finite(self):
        e = init_encoder(5, 2, 8)
        with pytest.raises(ValueError):
            encode(e, np.array([np.nan, 0.0]))


# numpy's float64 tan runs its AVX512 SIMD loop under these targets; with
# them disabled it calls libm, which gives other bits for some inputs.
AVX512_TARGETS = [t for t in ("AVX512_ICL", "AVX512_SPR", "X86_V4")
                  if t in __cpu_dispatch__]

LIBM_CHECK = textwrap.dedent("""
    import sys
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__
    sys.path.insert(0, sys.argv[1])
    from dynhd.encoder import (BLOCK_ROWS, encode, encode_batch,
                               init_encoder, reencode_dims, regenerate_dims)
    from test_encoder import fold_projection, plan_for

    assert not __cpu_features__["X86_V4"]
    eps = np.finfo(np.float64).eps
    rng = np.random.Generator(np.random.Philox(key=3))
    e = init_encoder(3, 5, 257)
    plan = plan_for(e, range(1, 257, 3))
    e2 = regenerate_dims(e, plan)
    for scale in (1e-3, 1.0, 1e2, 1e4):
        feats = rng.standard_normal((BLOCK_ROWS + 3, 5)) * scale
        x = fold_projection(feats, e.bases)
        product = np.cos(x + e.phases) * np.sin(x)
        batch = encode_batch(e, feats)
        assert np.all(np.abs(batch - product) <= 4 * eps * (np.abs(x) + 1))
        assert encode(e, feats[-1]).tobytes() == batch[-1].tobytes()
        reencode_dims(e2, feats, batch, plan, inplace=True)
        assert batch.tobytes() == encode_batch(e2, feats).tobytes()
    zeros = encode_batch(e, np.zeros((BLOCK_ROWS + 3, 5)))
    assert zeros.tobytes() == bytes(zeros.nbytes)
    print("ok")
""")


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy's runtime lists no X86_V4, so tan already "
                           "takes the libm path the other tests run")
def test_libm_tangent_keeps_the_kernel_contract():
    """On a CPU without numpy's AVX512 targets tan is libm's: the kernel
    still meets the product-form bound, encodes a zero row to +0.0, and
    gives a block, a single row and a re-encoded subset the same bits."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_TARGETS))
    proc = subprocess.run(
        [sys.executable, "-c", LIBM_CHECK, os.path.dirname(__file__)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


class TestSingleSampleErrors:
    """A single sample is checked as a batch of one, so its errors read as
    the batch check's for row 0."""

    @pytest.mark.parametrize("f, shape", [
        (np.zeros(3), "(1, 3)"), (np.zeros(0), "(1, 0)"),
        (np.zeros((1, 4)), "(1, 1, 4)"), (2.0, "(1,)")])
    def test_wrong_shape(self, f, shape):
        e = init_encoder(5, 4, 8)
        with pytest.raises(ValueError) as exc:
            encode(e, f)
        assert str(exc.value) == f"batch must have shape (N, 4), got {shape}"

    def test_wrong_shape_in_reencode(self):
        e = init_encoder(5, 4, 8)
        with pytest.raises(ValueError) as exc:
            reencode_dims(e, np.zeros(3), np.zeros(8), plan_for(e, [1]))
        assert str(exc.value) == "batch must have shape (N, 4), got (1, 3)"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, value):
        e = init_encoder(5, 2, 8)
        f = np.array([0.0, value])
        for call in (lambda: encode(e, f),
                     lambda: reencode_dims(e, f, np.zeros(8),
                                           plan_for(e, [1]))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == ("sample 0: feature vector contains "
                                      "non-finite entries")

    def test_hypervector_shape_follows_the_sample(self):
        e = init_encoder(5, 2, 8)
        with pytest.raises(ValueError) as exc:
            reencode_dims(e, np.zeros(2), np.zeros((1, 8)), plan_for(e, [1]))
        assert str(exc.value) == ("hypervectors must have shape (8,), "
                                  "got (1, 8)")


class TestEncodeBatch:
    def test_singleton_equals_encode(self):
        e = init_encoder(2, 3, 16)
        f = np.array([0.3, -2.0, 1.5])
        np.testing.assert_array_equal(encode_batch(e, f[None, :])[0],
                                      encode(e, f))

    def test_equals_sequential_loop(self):
        e = init_encoder(2, 4, 32)
        samples = np.random.Generator(
            np.random.Philox(key=8)).standard_normal((100, 4))
        batched = encode_batch(e, samples)
        for i in range(100):
            np.testing.assert_array_equal(batched[i], encode(e, samples[i]))

    def test_empty_batch(self):
        e = init_encoder(2, 4, 32)
        out = encode_batch(e, np.empty((0, 4)))
        assert out.shape == (0, 32)

    def test_empty_list_is_the_empty_batch(self):
        assert encode_batch(init_encoder(1, 5, 300), []).shape == (0, 300)

    @pytest.mark.parametrize("shape", [(0, 9), (0, 5, 2), (0, 0)])
    def test_empty_batch_of_another_width_rejected(self, shape):
        with pytest.raises(ValueError) as exc:
            encode_batch(init_encoder(1, 5, 300), np.empty(shape))
        assert str(exc.value) == f"batch must have shape (N, 5), got {shape}"

    def test_error_carries_sample_index(self):
        e = init_encoder(2, 2, 8)
        bad = np.array([[0.0, 1.0], [np.inf, 0.0]])
        with pytest.raises(ValueError, match="sample 1"):
            encode_batch(e, bad)

    def test_large_output_equals_its_halves(self):
        e = init_encoder(2, 3, 1024)
        rows = (4 << 20) // (1024 * 8) + 1  # an output of over 4 MB
        samples = np.random.Generator(
            np.random.Philox(key=9)).standard_normal((rows, 3))
        out = encode_batch(e, samples)
        assert out.flags.writeable and out.flags.c_contiguous
        halves = [encode_batch(e, part)
                  for part in np.array_split(samples, 2)]
        np.testing.assert_array_equal(out, np.concatenate(halves))
        plan = plan_for(e, [0, 5, 1023])
        e2 = regenerate_dims(e, plan)
        reencode_dims(e2, samples, out, plan, inplace=True)
        np.testing.assert_array_equal(out, encode_batch(e2, samples))

    def test_blocks_through_a_reused_buffer_equal_the_batch(self):
        e = init_encoder(2, 3, 16)
        samples = np.random.Generator(
            np.random.Philox(key=10)).standard_normal((2 * BLOCK_ROWS + 3, 3))
        batch = encode_batch(e, samples)
        buffers, starts = [], []
        for rows, h in encode_blocks(e, samples):
            buffers.append(h.base)
            assert h.tobytes() == batch[rows].tobytes()
            starts.append(rows.start)
        assert starts == [0, BLOCK_ROWS, 2 * BLOCK_ROWS]
        assert all(b is buffers[0] for b in buffers)
        assert buffers[0].shape == (BLOCK_ROWS, 16)
        # a batch shorter than a block gets a buffer of its own length
        (rows, h), = encode_blocks(e, samples[:3])
        assert h.base.shape == (3, 16)
        assert h.tobytes() == batch[:3].tobytes()


class TestRegenerateDims:
    def test_empty_plan_is_identity(self):
        e = init_encoder(13, 3, 6)
        e2 = regenerate_dims(e, plan_for(e, []))
        assert e2 is e
        np.testing.assert_array_equal(e2.bases, e.bases)
        np.testing.assert_array_equal(e2.phases, e.phases)
        assert e2.draw_counter == e.draw_counter

    def test_locality(self):
        e = init_encoder(13, 2, 3)
        e2 = regenerate_dims(e, plan_for(e, [1]))
        np.testing.assert_array_equal(e2.bases[[0, 2]], e.bases[[0, 2]])
        np.testing.assert_array_equal(e2.phases[[0, 2]], e.phases[[0, 2]])
        assert not np.array_equal(e2.bases[1], e.bases[1])
        assert e2.phases[1] != e.phases[1]

    def test_input_untouched_and_counter_advances(self):
        e = init_encoder(13, 2, 3)
        bases_before = e.bases.copy()
        counter_before = e.draw_counter
        e2 = regenerate_dims(e, plan_for(e, [0, 2]))
        np.testing.assert_array_equal(e.bases, bases_before)
        assert e.draw_counter == counter_before
        # per row: one Box-Muller pair for n=2 plus one phase draw
        assert e2.draw_counter == counter_before + 2 * (2 + 1)

    def test_draws_continue_the_seed_stream(self):
        e = init_encoder(21, 3, 4)
        e2 = regenerate_dims(e, plan_for(e, [1, 3]))
        position = e.draw_counter
        for i in (1, 3):  # 3 normals take 4 uniforms; the phase follows
            np.testing.assert_array_equal(
                e2.bases[i], paired_normals(uniforms(21, position, 4))[:3])
            assert e2.phases[i] == TWO_PI * uniforms(21, position + 4, 1)[0]
            position += 5
        assert e2.draw_counter == position

    def test_replay_from_serialized_state(self, tmp_path):
        e = init_encoder(5, 4, 8)
        path = os.path.join(tmp_path, "m.json")
        save_model(path, e, ClassModel(np.zeros((2, 8)), ["a", "b"]))
        restored, _, _ = load_model(path)
        plan = plan_for(e, [0, 5])
        a = regenerate_dims(e, plan)
        b = regenerate_dims(restored, plan)
        np.testing.assert_array_equal(a.bases, b.bases)
        np.testing.assert_array_equal(a.phases, b.phases)

    @pytest.mark.parametrize("call", ["regenerate", "reencode"])
    def test_plan_for_another_dim_rejected(self, call):
        e = init_encoder(5, 2, 4)
        plan = RegenPlan(np.array([1]), np.zeros(8), "insignificant", 0.25)
        with pytest.raises(ValueError) as exc:
            if call == "regenerate":
                regenerate_dims(e, plan)
            else:
                reencode_dims(e, np.zeros(2), np.zeros(4), plan)
        assert str(exc.value) == "plan is for D=8, but the encoder has D=4"

    def test_out_of_range_plan_rejected(self):
        e = init_encoder(5, 2, 4)
        with pytest.raises(ValueError):
            regenerate_dims(e, RegenPlan(np.array([4]), np.zeros(4),
                                         "insignificant", 0.25))


class TestBatchedRegenerationIsExact:
    """One draw per plan equals the per-dimension loop, round after round."""

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 617])
    @pytest.mark.parametrize("dim", [1, 7, 257])
    def test_chained_rounds_equal_reference(self, n, dim):
        pick = np.random.Generator(np.random.Philox(key=n * 1000 + dim))
        e = init_encoder(31, n, dim)
        ref = (e.bases, e.phases, e.draw_counter)
        plans = [[], list(range(dim))]  # empty, then full
        plans += [np.sort(pick.choice(dim, size=int(pick.integers(1, dim + 1)),
                                      replace=False)) for _ in range(3)]
        for indices in plans:
            ref = _reference_regenerate(ref[0], ref[1], 31, ref[2], indices)
            e = regenerate_dims(e, plan_for(e, indices))
            assert np.array_equal(e.bases, ref[0])
            assert np.array_equal(e.phases, ref[1])
            assert e.draw_counter == ref[2]
        assert [idx.tolist() for idx in e.regen_history] == [
            list(idx) for idx in plans[1:]]

    def test_history_logs_non_empty_plans_in_order(self):
        e = init_encoder(3, 2, 8)
        for indices in ([1, 4], [], [0, 4, 7]):
            e = regenerate_dims(e, plan_for(e, indices))
        assert [idx.tolist() for idx in e.regen_history] == [[1, 4],
                                                              [0, 4, 7]]
        assert all(idx.dtype == np.int64 for idx in e.regen_history)


class TestReplayEncoder:
    def test_replay_equals_chained_regeneration(self):
        e = init_encoder(8, 5, 40)
        for indices in ([3, 9, 39], [0, 1, 2], [9]):
            e = regenerate_dims(e, plan_for(e, indices))
        replayed = replay_encoder(8, 5, 40, [[3, 9, 39], [0, 1, 2], [9]])
        assert np.array_equal(replayed.bases, e.bases)
        assert np.array_equal(replayed.phases, e.phases)
        assert replayed.draw_counter == e.draw_counter
        assert ([idx.tolist() for idx in replayed.regen_history]
                == [idx.tolist() for idx in e.regen_history])

    def test_repeated_round_replays_the_chain(self, monkeypatch):
        """Ten rounds of one set, as the insignificant detector plans them,
        equal the chain, draw counter included, while each regenerated row
        is transformed once: only the last round's rows survive."""
        indices = [0, 3, 4, 17, 39]
        e = init_encoder(8, 5, 40)
        for _ in range(10):
            e = regenerate_dims(e, plan_for(e, indices))
        transformed = []

        def counting(u):
            transformed.append(u.shape)
            return paired_normals(u)

        monkeypatch.setattr(dynhd.encoder, "paired_normals", counting)
        replayed = replay_encoder(8, 5, 40, [indices] * 10)
        assert replayed.bases.tobytes() == e.bases.tobytes()
        assert replayed.phases.tobytes() == e.phases.tobytes()
        # 40 rows of 5 normals and 40 phases, then 6 + 1 uniforms per redraw
        assert replayed.draw_counter == e.draw_counter == (
            200 + 40 + 10 * len(indices) * 7)
        assert ([idx.tolist() for idx in replayed.regen_history]
                == [indices] * 10)
        # init_encoder's one transform of 200 normals, then only the last
        # round's rows, of 6 uniforms each
        assert transformed == [(200,), (len(indices), 6)]

    def test_empty_history_is_a_fresh_encoder(self):
        replayed = replay_encoder(8, 5, 40, [])
        fresh = init_encoder(8, 5, 40)
        assert np.array_equal(replayed.bases, fresh.bases)
        assert replayed.draw_counter == fresh.draw_counter

    @pytest.mark.parametrize("history, bad", [
        ([[3, 1]], 0), ([[1], [2, 2]], 1), ([[-1]], 0), ([[8]], 0),
        ([[]], 0), ([[1.0]], 0), ([[True]], 0), ([["1"]], 0), ([[[1]]], 0),
        ([[2**70]], 0), ([list(range(1000, 0, -1))], 0),
        ([np.array([3, 1], dtype=np.uint64)], 0),
        ([np.array([2**64 - 1, 1], dtype=np.uint64)], 0),
    ])
    def test_bad_entry_rejected(self, history, bad):
        with pytest.raises(ValueError) as exc:
            replay_encoder(8, 2, 8, history)
        echo = repr(history[bad])
        if len(echo) > REPR_CHARS:
            echo = echo[:REPR_CHARS] + "..."
        assert str(exc.value) == (
            f"regen_history[{bad}] must be a non-empty, strictly increasing "
            f"list of integers in [0, 8), got {echo}")


class TestReencodeDims:
    def test_empty_plan_returns_input_values(self):
        e = init_encoder(3, 3, 12)
        f = np.array([0.1, 0.2, -0.3])
        h = encode(e, f)
        np.testing.assert_array_equal(reencode_dims(e, f, h, plan_for(e, [])),
                                      h)

    def test_matches_full_encode_after_regeneration(self):
        e = init_encoder(3, 3, 12)
        f = np.array([0.1, 0.2, -0.3])
        h = encode(e, f)
        plan = plan_for(e, [2, 7, 11])
        e2 = regenerate_dims(e, plan)
        np.testing.assert_array_equal(reencode_dims(e2, f, h, plan),
                                      encode(e2, f))

    def test_full_plan_equals_full_encode(self):
        e = init_encoder(3, 2, 8)
        f = np.array([1.0, -2.0])
        stale = np.zeros(8)
        plan = plan_for(e, range(8))
        np.testing.assert_array_equal(reencode_dims(e, f, stale, plan),
                                      encode(e, f))

    def test_does_not_mutate_input_hypervector(self):
        e = init_encoder(3, 2, 8)
        f = np.array([1.0, -2.0])
        h = np.zeros(8)
        reencode_dims(e, f, h, plan_for(e, [0, 1]))
        np.testing.assert_array_equal(h, np.zeros(8))


ROW_COUNTS = [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]


class TestRowBlocksAreExact:
    """Row blocks encode every row bit-for-bit as it encodes alone."""

    @pytest.mark.parametrize("dim", [1, 7, 257, 1001])
    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_encode_batch_equals_per_row(self, count, dim):
        e = init_encoder(17, 5, dim)
        feats = np.random.Generator(
            np.random.Philox(key=count)).standard_normal((count, 5)) * 3.0
        batched = encode_batch(e, feats)
        for i in range(count):
            assert np.array_equal(batched[i], encode(e, feats[i]))
            assert np.array_equal(batched[i], fold_encode(
                feats[i], e.bases, e.phases))

    @pytest.mark.parametrize("which", ["empty", "one", "some", "all"])
    @pytest.mark.parametrize("count", ROW_COUNTS)
    def test_inplace_batch_reencode_equals_per_row(self, count, which):
        dim = 257
        e = init_encoder(23, 4, dim)
        feats = np.random.Generator(
            np.random.Philox(key=count)).standard_normal((count, 4))
        cache = encode_batch(e, feats)
        indices = {"empty": [], "one": [5], "some": range(3, dim, 5),
                   "all": range(dim)}[which]
        plan = plan_for(e, indices)
        e2 = regenerate_dims(e, plan)
        per_row = [reencode_dims(e2, feats[i], cache[i], plan)
                   for i in range(count)]
        assert reencode_dims(e2, feats, cache, plan, inplace=True) is cache
        for i in range(count):
            assert np.array_equal(cache[i], per_row[i])
            assert np.array_equal(cache[i], fold_encode(
                feats[i], e2.bases, e2.phases))

    def test_batch_reencode_copy_leaves_input(self):
        e = init_encoder(3, 2, 9)
        feats = np.arange(10.0).reshape(5, 2)
        cache = encode_batch(e, feats)
        before = cache.copy()
        plan = plan_for(e, [0, 4])
        e2 = regenerate_dims(e, plan)
        out = reencode_dims(e2, feats, cache, plan)
        assert np.array_equal(cache, before)
        assert np.array_equal(out, encode_batch(e2, feats))

    def test_inplace_needs_float64_array(self):
        e = init_encoder(3, 2, 8)
        with pytest.raises(ValueError, match="float64"):
            reencode_dims(e, np.ones(2), [0.0] * 8, plan_for(e, [1]),
                          inplace=True)

    def test_batch_shape_mismatch_rejected(self):
        e = init_encoder(3, 2, 8)
        with pytest.raises(ValueError, match="shape"):
            reencode_dims(e, np.ones((3, 2)), np.zeros((2, 8)),
                          plan_for(e, [1]))

    @pytest.mark.parametrize("bad", [0, BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 3])
    def test_non_finite_row_named_in_any_block(self, bad):
        e = init_encoder(2, 3, 16)
        feats = np.ones((3 * BLOCK_ROWS, 3))
        feats[bad, 1] = np.nan
        feats[-1, 0] = np.inf  # only the first bad row is named
        msg = f"sample {bad}: feature vector contains non-finite entries"
        with pytest.raises(ValueError, match=msg):
            encode_batch(e, feats)
        with pytest.raises(ValueError, match=msg):
            reencode_dims(e, feats, np.zeros((3 * BLOCK_ROWS, 16)),
                          plan_for(e, [0]), inplace=True)


class TestOverflowingProjection:
    """Finite features whose projection overflows would encode to NaN,
    which scores 0 against every class."""

    @pytest.mark.parametrize("bad", [0, BLOCK_ROWS - 1, 2 * BLOCK_ROWS + 3])
    def test_first_overflowing_row_named_in_any_block(self, bad):
        e = init_encoder(2, 3, 16)
        feats = np.ones((3 * BLOCK_ROWS, 3))
        feats[bad, 0] = 1.5e308
        feats[-1, 0] = -1.5e308  # only the first bad row is named
        msg = (f"^sample {bad}: encoding is not finite \\(the projection of "
               "its features overflows\\)$")
        with pytest.raises(ValueError, match=msg):
            encode_batch(e, feats)
        with pytest.raises(ValueError, match=msg):
            reencode_dims(e, feats, np.zeros((3 * BLOCK_ROWS, 16)),
                          plan_for(e, range(16)), inplace=True)

    def test_only_the_planned_dimensions_are_checked(self):
        e = init_encoder(4, 2, 16)
        f = np.array([1e308, 0.0])
        ok = [d for d in range(16) if abs(e.bases[d, 0]) < 0.5]
        assert 0 < len(ok) < 16  # 2x overflows on some other dimension
        h = reencode_dims(e, f, np.zeros(16), plan_for(e, ok))
        assert np.array_equal(h[ok], fold_encode(f, e.bases[ok],
                                                 e.phases[ok]))
        with pytest.raises(ValueError, match="^sample 0: encoding is not"):
            encode(e, f)


def count_einsums(monkeypatch):
    """Record the column count of every einsum the encoder calls."""
    einsums = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def einsum(self, *args, **kwargs):
            einsums.append(args[2].shape[1])
            return np.einsum(*args, **kwargs)

    monkeypatch.setattr(dynhd.encoder, "np", CountingNumpy())
    return einsums


def tile_widths(dim, step):
    """The encoder's tiles over ``dim`` columns: ``step`` wide, the last one
    reaching back a column rather than being one column wide."""
    widths = [step] * (dim // step) + ([dim % step] if dim % step else [])
    return widths[:-1] + [2] if widths[-1] == 1 else widths


class TestTiledProjectionIsExact:
    """Tiling the projection over columns changes no bit: every entry is
    the same left-to-right sum over n, and no einsum operand is one column
    wide."""

    # (n, TILE_COLUMNS, D): no tile width divides D, and the last three
    # shapes leave one column for the last tile
    @pytest.mark.parametrize("n, step, dim", [
        (5, 32, 101), (37, 40, 130), (617, 33, 67), (3, 32, 97), (7, 32, 1)])
    def test_uneven_tiles_equal_the_fold(self, monkeypatch, n, step, dim):
        monkeypatch.setattr(dynhd.encoder, "TILE_COLUMNS", step)
        einsums = count_einsums(monkeypatch)
        e = init_encoder(11, n, dim)
        feats = np.random.Generator(np.random.Philox(key=n)).standard_normal(
            (BLOCK_ROWS + 6, n)) * 3.0
        batched = encode_batch(e, feats)
        # two row blocks, each split into the same uneven tiles
        assert einsums == tile_widths(dim, step) * 2
        assert batched.tobytes() == fold_encode(feats, e.bases,
                                                e.phases).tobytes()
        assert encode(e, feats[3]).tobytes() == batched[3].tobytes()

        idx = np.arange(1, dim, 2)  # more planned columns than one tile
        plan = plan_for(e, idx)
        e2 = regenerate_dims(e, plan)
        expected = fold_encode(feats, e2.bases, e2.phases)
        assert reencode_dims(e2, feats, batched, plan,
                             inplace=True) is batched
        assert batched.tobytes() == expected.tobytes()
        assert (reencode_dims(e2, feats[3], encode(e, feats[3]),
                              plan).tobytes() == expected[3].tobytes())

    def test_one_tile_covers_the_small_shape(self, monkeypatch):
        """A tile holds TILE_COLUMNS = 2048 columns, so D=2048 projects in
        one einsum per row block."""
        einsums = count_einsums(monkeypatch)
        encode_batch(init_encoder(3, 16, 2048), np.ones((BLOCK_ROWS + 1, 16)))
        assert einsums == [2048, 2048]
