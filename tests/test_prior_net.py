"""Recurrent prior network: forward conventions and exact gradients."""

import hashlib

import numpy as np
import pytest

from semidanse.prior_net import (
    PARAM_KEYS,
    NetDims,
    PriorNetParams,
    _cell_step,
    _heads_forward,
    _pack_cell,
    backward_batch,
    forward_batch,
    init_params,
    load_params,
    param_shapes,
    save_params,
    sigmoid,
    softplus,
)
from semidanse.exceptions import NumericError

from conftest import zeros_params

DIMS = NetDims(input_dim=2)


def perturbed_params(seed: int, scale: float = 0.05) -> PriorNetParams:
    """Generic parameter point: seeded init plus a small dense offset.

    Biases initialize to zero, which parks several ReLU pre-activations
    exactly on their kinks (the t = 1 trunk input is exactly zero); finite
    differences are only meaningful away from those kinks.
    """
    base = init_params(DIMS, seed)
    gen = np.random.default_rng(seed + 1)
    arrays = {k: v + scale * gen.standard_normal(v.shape) for k, v in base.arrays.items()}
    return PriorNetParams(DIMS, arrays)


def reference_unrolled(params: PriorNetParams, ys: np.ndarray):
    """Straight-line scalar-loop forward pass, independent of the library kernels."""
    a = params.arrays

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    def cell(z, y):
        r = sig(a["w_reset_in"] @ y + a["w_reset_rec"] @ z + a["b_reset"])
        u = sig(a["w_update_in"] @ y + a["w_update_rec"] @ z + a["b_update"])
        c = np.tanh(a["w_cand_in"] @ y + a["w_cand_rec"] @ (r * z) + a["b_cand"])
        return (1.0 - u) * z + u * c

    def head(z):
        trunk = np.maximum(a["w_trunk"] @ z + a["b_trunk"], 0.0)
        mh = np.maximum(a["w_mean_hidden"] @ trunk + a["b_mean_hidden"], 0.0)
        mean = a["w_mean_out"] @ mh + a["b_mean_out"]
        vh = np.maximum(a["w_var_hidden"] @ trunk + a["b_var_hidden"], 0.0)
        var = np.log1p(np.exp(-(np.abs(a["w_var_out"] @ vh + a["b_var_out"])))) + np.maximum(
            a["w_var_out"] @ vh + a["b_var_out"], 0.0
        )
        return mean, var

    z = np.zeros(params.dims.hidden)
    means, variances = [], []
    for t in range(len(ys)):
        m, v = head(z)
        means.append(m)
        variances.append(v)
        if t < len(ys) - 1:
            z = cell(z, ys[t])
    return np.array(means), np.array(variances)


def cell_b1(params: PriorNetParams, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One gated-cell step of (B, h) states on raw (B, n) inputs through the packed weights."""
    w = _pack_cell(params, len(z))
    out, x = np.empty_like(z), y @ w.w_in.T + w.b
    _cell_step(w, z, x[:, : 2 * z.shape[1]], x[:, 2 * z.shape[1] :], out)
    return out


def backward_b1(params: PriorNetParams, ys: np.ndarray, g_mean: np.ndarray, g_var: np.ndarray):
    """Gradients for one (T, n) trajectory: the batched forward/backward at B = 1."""
    _, _, cache = forward_batch(params, ys[None])
    return backward_batch(params, cache, g_mean[None], g_var[None])


class TestCellStep:
    @pytest.mark.parametrize("batch", [1, 16])
    def test_halved_gate_rows_keep_the_sigmoid_bits(self, batch):
        # The packed reset/update rows are halved, so the step takes no x / 2 of its
        # own; the gates and the new state must still be bitwise those of
        # sigmoid((y W_in^T + b) + z W_r^T), saturated gates included.
        p, gen, h = perturbed_params(7, scale=2.0), np.random.default_rng(batch), DIMS.hidden
        a = p.arrays
        z = gen.uniform(-1.0, 1.0, (batch, h))
        y = 2.5 * gen.standard_normal((batch, DIMS.input_dim))
        w_in = np.concatenate([a["w_reset_in"], a["w_update_in"], a["w_cand_in"]])
        x = y @ w_in.T + np.concatenate([a["b_reset"], a["b_update"], a["b_cand"]])
        pre = x[:, : 2 * h] + z @ np.concatenate([a["w_reset_rec"], a["w_update_rec"]]).T
        assert 20.0 < np.abs(pre).max() <= 40.0
        ru = sigmoid(pre)
        c = np.tanh(x[:, 2 * h :] + (ru[:, :h] * z) @ a["w_cand_rec"].T)
        assert np.array_equal(cell_b1(p, z, y), (c - z) * ru[:, h:] + z)

    def test_zero_params_zero_state(self):
        p = zeros_params(DIMS)
        out = cell_b1(p, np.zeros((1, DIMS.hidden)), np.array([[1.0, -2.0]]))
        np.testing.assert_array_equal(out[0], np.zeros(DIMS.hidden))

    def test_zero_params_halves_previous_state(self, rng):
        # update gate sits at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0
        p = zeros_params(DIMS)
        v = rng.standard_normal(DIMS.hidden)
        out = cell_b1(p, v[None], rng.standard_normal((1, 2)))
        np.testing.assert_allclose(out[0], 0.5 * v, atol=1e-15)

    def test_weight_perturbation_matches_gradient(self):
        # directional derivative of <g, output_2> wrt a single recurrent weight
        p = perturbed_params(3)
        ys = np.random.default_rng(0).standard_normal((2, 2))
        g_mean = np.zeros((2, 3))
        g_var = np.zeros((2, 3))
        g_mean[1] = np.array([0.3, -1.1, 0.7])
        grads = backward_b1(p, ys, g_mean, g_var)
        for key in ("w_cand_in", "w_update_rec", "w_reset_in"):
            idx = (1, 0)
            h = 1e-6
            for sign in (+1, -1):
                q = p.copy()
                q.arrays[key][idx] += sign * h
                mean, _, _ = forward_batch(q, ys[None])
                if sign > 0:
                    f_plus = float(np.sum(g_mean * mean[0]))
                else:
                    f_minus = float(np.sum(g_mean * mean[0]))
            fd = (f_plus - f_minus) / (2 * h)
            an = grads.arrays[key][idx]
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestHeads:
    def test_zero_params_give_log_two_variance(self):
        p = zeros_params(DIMS)
        mean, var, *_ = _heads_forward(p, np.zeros((1, DIMS.hidden)))
        np.testing.assert_array_equal(mean[0], np.zeros(3))
        np.testing.assert_allclose(var[0], np.log(2.0) * np.ones(3), rtol=1e-12)

    def test_bias_only_mean(self):
        p = zeros_params(DIMS)
        p.arrays["b_mean_out"][:] = [1.0, -2.0, 0.5]
        mean, *_ = _heads_forward(p, np.zeros((1, DIMS.hidden)))
        np.testing.assert_array_equal(mean[0], [1.0, -2.0, 0.5])

    def test_variance_strictly_positive(self, rng):
        p = perturbed_params(9, scale=0.5)
        for _ in range(20):
            _, var, *_ = _heads_forward(p, rng.standard_normal((1, DIMS.hidden)) * 3.0)
            assert np.all(var[0] > 0.0)

    def test_softplus_stability(self):
        big = np.array([800.0, -800.0, 0.0])
        vals = softplus(big)
        assert np.isfinite(vals).all()
        assert vals[0] == pytest.approx(800.0)
        assert vals[1] == 0.0
        assert vals[2] == pytest.approx(np.log(2.0))


class TestForwardPriors:
    def test_single_step_equals_initial_heads(self, rng):
        p = perturbed_params(4)
        ys = rng.standard_normal((1, 2))
        mean, var, _ = forward_batch(p, ys[None])
        mean0, var0, *_ = _heads_forward(p, np.zeros((1, DIMS.hidden)))
        np.testing.assert_array_equal(mean[0, 0], mean0[0])
        np.testing.assert_array_equal(var[0, 0], var0[0])

    def test_strict_causality_last_input_unused(self, rng):
        p = perturbed_params(5)
        ys = rng.standard_normal((8, 2))
        before_mean, before_var, _ = forward_batch(p, ys[None])
        ys2 = ys.copy()
        ys2[-1] = 1e6
        after_mean, after_var, _ = forward_batch(p, ys2[None])
        np.testing.assert_array_equal(before_mean, after_mean)
        np.testing.assert_array_equal(before_var, after_var)

    def test_prefix_property(self, rng):
        # Truncation changes array shapes, and BLAS picks shape-dependent
        # blocking, so prefix outputs agree to rounding rather than bitwise;
        # value-level causality (previous test) is exact.
        p = perturbed_params(6)
        ys = rng.standard_normal((12, 2))
        full_mean, full_var, _ = forward_batch(p, ys[None])
        for cut in (1, 5, 9):
            part_mean, part_var, _ = forward_batch(p, ys[None, :cut])
            np.testing.assert_allclose(part_mean[0], full_mean[0, :cut], rtol=0, atol=1e-12)
            np.testing.assert_allclose(part_var[0], full_var[0, :cut], rtol=0, atol=1e-12)

    def test_matches_straight_line_reference(self, rng):
        p = perturbed_params(7, scale=0.3)
        ys = rng.standard_normal((3, 2))
        mean, var, _ = forward_batch(p, ys[None])
        ref_means, ref_vars = reference_unrolled(p, ys)
        np.testing.assert_allclose(mean[0], ref_means, atol=1e-12)
        np.testing.assert_allclose(var[0], ref_vars, atol=1e-12)


class TestBackward:
    def test_zero_upstream_gives_zero_gradient(self, rng):
        p = perturbed_params(8)
        ys = rng.standard_normal((5, 2))
        grads = backward_b1(p, ys, np.zeros((5, 3)), np.zeros((5, 3)))
        assert grads.to_vector().max() == 0.0
        assert grads.to_vector().min() == 0.0

    def test_mean_output_weight_gradient_hand_derived(self, rng):
        # For the linear mean output layer, d<g, mean>/dW_mo = sum_t g_t h_t^T
        # with h_t the post-ReLU activations of the mean-head hidden layer.
        p = perturbed_params(10, scale=0.2)
        ys = rng.standard_normal((4, 2))
        g_mean = rng.standard_normal((4, 3))
        grads = backward_b1(p, ys, g_mean, np.zeros((4, 3)))
        a = p.arrays
        z = np.zeros(DIMS.hidden)
        expected = np.zeros_like(a["w_mean_out"])
        expected_bias = np.zeros_like(a["b_mean_out"])
        for t in range(4):
            trunk = np.maximum(a["w_trunk"] @ z + a["b_trunk"], 0.0)
            hidden = np.maximum(a["w_mean_hidden"] @ trunk + a["b_mean_hidden"], 0.0)
            expected += np.outer(g_mean[t], hidden)
            expected_bias += g_mean[t]
            z = cell_b1(p, z[None], ys[t][None])[0]
        np.testing.assert_allclose(grads.arrays["w_mean_out"], expected, atol=1e-12)
        np.testing.assert_allclose(grads.arrays["b_mean_out"], expected_bias, atol=1e-12)

    def test_finite_differences_over_all_groups(self, rng):
        # 60 randomly sampled parameters across a T = 10 unroll, step 1e-6
        p = perturbed_params(11)
        ys = rng.standard_normal((10, 2))
        g_mean = rng.standard_normal((10, 3))
        g_var = rng.standard_normal((10, 3))
        grads = backward_b1(p, ys, g_mean, g_var).to_vector()
        theta = p.to_vector()

        def value(vec):
            mean, var, _ = forward_batch(p.from_vector(vec), ys[None])
            return float(np.sum(g_mean * mean[0]) + np.sum(g_var * var[0]))

        idx = rng.choice(theta.size, size=60, replace=False)
        h = 1e-6
        for i in idx:
            plus = theta.copy()
            plus[i] += h
            minus = theta.copy()
            minus[i] -= h
            fd = (value(plus) - value(minus)) / (2 * h)
            denom = max(abs(fd), abs(grads[i]), 1e-6)
            assert abs(fd - grads[i]) / denom < 1e-4

    def test_batch_equals_sum_of_single_trajectories(self, rng):
        # Three distinct trajectories in one batch against their B = 1 passes;
        # T = 1 runs no cell step, T = 2 exactly one.
        p = perturbed_params(15)
        for t_len in (1, 2, 10):
            ys = rng.standard_normal((3, t_len, 2))
            g_mean = rng.standard_normal((3, t_len, 3))
            g_var = rng.standard_normal((3, t_len, 3))
            mean, var, cache = forward_batch(p, ys)
            grads = backward_batch(p, cache, g_mean, g_var)
            expected = [backward_b1(p, ys[i], g_mean[i], g_var[i]) for i in range(3)]
            for key in PARAM_KEYS:
                total = sum(e.arrays[key] for e in expected)
                np.testing.assert_allclose(grads.arrays[key], total, rtol=1e-12, atol=1e-14)
            for i in range(3):
                mean_i, var_i, _ = forward_batch(p, ys[i : i + 1])
                np.testing.assert_allclose(mean[i], mean_i[0], rtol=1e-12)
                np.testing.assert_allclose(var[i], var_i[0], rtol=1e-12)

    def test_workspace_passes_equal_fresh_passes(self, rng):
        # One workspace through passes of several shapes, a smaller one after a larger
        # one included: every pass equals the same pass in fresh memory, bit for bit.
        p = perturbed_params(16)
        ws = {}
        for b, t_len in ((3, 10), (2, 10), (3, 7), (3, 10)):
            ys = rng.standard_normal((b, t_len, 2))
            g_mean, g_var = rng.standard_normal((2, b, t_len, 3))
            mean, var, cache = forward_batch(p, ys, ws)
            grads = backward_batch(p, cache, g_mean, g_var, ws).to_vector()
            fresh_mean, fresh_var, fresh_cache = forward_batch(p, ys)
            np.testing.assert_array_equal(mean, fresh_mean)
            np.testing.assert_array_equal(var, fresh_var)
            np.testing.assert_array_equal(
                grads, backward_batch(p, fresh_cache, g_mean, g_var).to_vector())

    def test_recurrent_weights_have_gradient_at_t10(self, rng):
        p = perturbed_params(12)
        ys = rng.standard_normal((10, 2))
        grads = backward_b1(p, ys, rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
        for key in ("w_reset_rec", "w_update_rec", "w_cand_rec"):
            assert np.abs(grads.arrays[key]).max() > 0.0


class TestParams:
    def test_shapes_and_count(self):
        shapes = param_shapes(DIMS)
        assert shapes["w_reset_in"] == (30, 2)
        assert shapes["w_mean_hidden"] == (32, 30)
        p = init_params(DIMS, 0)
        assert p.num_params() == sum(int(np.prod(s)) for s in shapes.values())

    def test_init_bounds_and_zero_biases(self):
        p = init_params(DIMS, 123)
        for key, arr in p.arrays.items():
            if arr.ndim == 1:
                assert np.all(arr == 0.0)
            else:
                bound = 1.0 / np.sqrt(arr.shape[1])
                assert np.abs(arr).max() <= bound

    def test_init_seeded(self):
        a = init_params(DIMS, 5).to_vector()
        b = init_params(DIMS, 5).to_vector()
        c = init_params(DIMS, 6).to_vector()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_vector_round_trip(self, rng):
        p = perturbed_params(13)
        vec = p.to_vector()
        q = p.from_vector(vec)
        for key in PARAM_KEYS:
            np.testing.assert_array_equal(p.arrays[key], q.arrays[key])

    def test_first_non_finite_block_is_named_in_key_order(self):
        # Blocks are checked in one pass; a failure still names the first bad block
        # in PARAM_KEYS order, whatever the order of the caller's dict.
        p = perturbed_params(15)
        arrays = {key: p.arrays[key].copy() for key in reversed(PARAM_KEYS)}
        arrays["b_var_out"][0] = np.nan
        arrays["w_update_rec"][3, 4] = np.nan
        with pytest.raises(NumericError, match="^w_update_rec: non-finite"):
            PriorNetParams(DIMS, arrays)
        vec = p.to_vector()
        offset = sum(p.arrays[key].size for key in PARAM_KEYS[: PARAM_KEYS.index("w_update_rec")])
        vec[offset + 3 * DIMS.hidden + 4] = np.nan
        vec[-1] = np.nan  # the last entry of b_var_out
        with pytest.raises(NumericError, match="^w_update_rec: non-finite"):
            p.from_vector(vec)

    def test_checkpoint_round_trip(self, tmp_path):
        p = perturbed_params(14)
        path = str(tmp_path / "net.ckpt")
        save_params(p, path, extra_meta={"note": "unit"})
        q, meta = load_params(path)
        assert meta["note"] == "unit"
        np.testing.assert_array_equal(p.to_vector(), q.to_vector())
        assert q.dims == p.dims

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "net.ckpt"
        save_params(init_params(DIMS, 3), str(path), extra_meta={"method": "semidanse"})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1b3c6c4754b11236ec11f3315668d48dd103452489270b0d8bd8162e2edee665")
