"""Recurrent parameterization of the Gaussian prior over the hidden state.

A single gated recurrent cell consumes the measurement history y_{1:t-1};
its hidden state is mapped by two feed-forward heads to the prior mean and
the (diagonal, softplus-positive) prior covariance for time t. The prior at
t = 1 comes from the zero initial hidden state and is therefore a learned
constant.

Gate convention (normative for every numeric example in the tests):

    r = sigmoid(W_ri y + W_rr z + b_r)          reset gate
    u = sigmoid(W_ui y + W_ur z + b_u)          update gate
    c = tanh(W_ci y + W_cr (r * z) + b_c)       candidate, reset-gated hidden
    z' = (1 - u) * z + u * c

Heads:

    trunk   = relu(W_t z + b_t)                     shared, width 30
    mean    = W_mo relu(W_mh trunk + b_mh) + b_mo   per-head hidden width 32
    diagcov = softplus(W_vo relu(W_vh trunk + b_vh) + b_vo)

The kernels pack the gate weights as PyTorch's nn.GRU stores them (_PackedCell:
input weights (3h, n), biases (3h,), reset|update recurrent weights (2h, h))
when a pass starts; checkpoints keep the PARAM_KEYS blocks. The forward pass
projects all T-1 inputs with one matmul, runs one (h, 2h) and one (h, h)
matmul per step and caches only the hidden states and head pre-activations.
The backward pass recomputes every step's gates at once from the cached hidden
states, runs two matmuls per step and forms the gate weight gradients after
the loop.

All gradients are exact reverse-mode (backpropagation through the unrolled
recurrence), implemented directly in numpy; there is no autodiff framework
underneath. Every entry point carries a (B, T, ...) leading layout; a single
trajectory is the B = 1 case of the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError
from .numerics import SeededRng
from .serialize import read_container, write_container

HIDDEN_DIM = 30
TRUNK_DIM = 30
HEAD_DIM = 32

PARAM_KEYS = (
    "w_reset_in", "w_reset_rec", "b_reset",
    "w_update_in", "w_update_rec", "b_update",
    "w_cand_in", "w_cand_rec", "b_cand",
    "w_trunk", "b_trunk",
    "w_mean_hidden", "b_mean_hidden", "w_mean_out", "b_mean_out",
    "w_var_hidden", "b_var_hidden", "w_var_out", "b_var_out",
)


@dataclass(frozen=True)
class NetDims:
    """Layer sizes; input_dim is the measurement dimension n."""

    input_dim: int
    state_dim: int = 3
    hidden: int = HIDDEN_DIM
    trunk: int = TRUNK_DIM
    head: int = HEAD_DIM


def param_shapes(dims: NetDims) -> dict[str, tuple[int, ...]]:
    n, m = dims.input_dim, dims.state_dim
    h, h2, h3 = dims.hidden, dims.trunk, dims.head
    return {
        "w_reset_in": (h, n), "w_reset_rec": (h, h), "b_reset": (h,),
        "w_update_in": (h, n), "w_update_rec": (h, h), "b_update": (h,),
        "w_cand_in": (h, n), "w_cand_rec": (h, h), "b_cand": (h,),
        "w_trunk": (h2, h), "b_trunk": (h2,),
        "w_mean_hidden": (h3, h2), "b_mean_hidden": (h3,),
        "w_mean_out": (m, h3), "b_mean_out": (m,),
        "w_var_hidden": (h3, h2), "b_var_hidden": (h3,),
        "w_var_out": (m, h3), "b_var_out": (m,),
    }


@dataclass
class PriorNetParams:
    """All learnable weights and biases, keyed by PARAM_KEYS order."""

    dims: NetDims
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        shapes = param_shapes(self.dims)
        if set(self.arrays) != set(PARAM_KEYS):
            raise DimensionError("parameter keys do not match the architecture")
        for key in PARAM_KEYS:
            arr = np.asarray(self.arrays[key], dtype=np.float64)
            if arr.shape != shapes[key]:
                raise DimensionError(f"{key}: shape {arr.shape}, expected {shapes[key]}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{key}: non-finite entries")
            self.arrays[key] = arr

    def num_params(self) -> int:
        return sum(a.size for a in self.arrays.values())

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.arrays[k].ravel() for k in PARAM_KEYS])

    def from_vector(self, vec: np.ndarray) -> "PriorNetParams":
        out = {}
        offset = 0
        for key in PARAM_KEYS:
            shape = self.arrays[key].shape
            size = self.arrays[key].size
            out[key] = vec[offset : offset + size].reshape(shape).copy()
            offset += size
        if offset != vec.size:
            raise DimensionError(f"vector size {vec.size} != parameter count {offset}")
        return PriorNetParams(self.dims, out)

    def copy(self) -> "PriorNetParams":
        return PriorNetParams(self.dims, {k: v.copy() for k, v in self.arrays.items()})


def zeros_params(dims: NetDims) -> PriorNetParams:
    return PriorNetParams(dims, {k: np.zeros(s) for k, s in param_shapes(dims).items()})


def init_params(dims: NetDims, seed: int) -> PriorNetParams:
    """Weights uniform in +-1/sqrt(fan_in), biases zero, fully seeded."""
    gen = SeededRng(seed).gen
    arrays = {}
    for key, shape in param_shapes(dims).items():
        if len(shape) == 1:
            arrays[key] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[1])
            arrays[key] = gen.uniform(-bound, bound, size=shape)
    return PriorNetParams(dims, arrays)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


@dataclass
class ForwardCache:
    """Hidden states and head pre-activations; backward_batch recomputes the gates."""

    ys: np.ndarray          # (B, T, n)
    hidden: np.ndarray      # (B, T, h); hidden[:, t] feeds the heads for prior t+1
    trunk_pre: np.ndarray   # (B, T, h2)
    mean_hidden_pre: np.ndarray  # (B, T, h3)
    var_hidden_pre: np.ndarray   # (B, T, h3)
    var_pre: np.ndarray     # (B, T, m), softplus pre-activation


class _PackedCell(NamedTuple):
    """Gate weights stacked in reset|update|candidate order."""

    w_in: np.ndarray   # (3h, n)
    b: np.ndarray      # (3h,)
    w_ru: np.ndarray   # (2h, h), reset|update recurrent weights
    w_c: np.ndarray    # (h, h), candidate recurrent weight


def _pack_cell(p: PriorNetParams) -> _PackedCell:
    a = p.arrays
    return _PackedCell(np.concatenate([a["w_reset_in"], a["w_update_in"], a["w_cand_in"]]),
                       np.concatenate([a["b_reset"], a["b_update"], a["b_cand"]]),
                       np.concatenate([a["w_reset_rec"], a["w_update_rec"]]), a["w_cand_rec"])


def _project_inputs(w: _PackedCell, ys: np.ndarray) -> np.ndarray:
    """Gate input terms W_in y + b of the consumed inputs ys[:, :T-1], time-major (T-1, B, 3h)."""
    x = ys[:, :-1].swapaxes(0, 1) @ w.w_in.T
    x += w.b
    return x


def _cell_forward(w: _PackedCell, h_prev: np.ndarray, x: np.ndarray):
    """Gated cell on (..., h) hidden rows and their (..., 3h) projected inputs, row by row."""
    h = h_prev.shape[-1]
    ru = sigmoid(x[..., : 2 * h] + h_prev @ w.w_ru.T)
    r, u = ru[..., :h], ru[..., h:]
    c = np.tanh(x[..., 2 * h :] + (r * h_prev) @ w.w_c.T)
    return h_prev + u * (c - h_prev), r, u, c


def _heads_forward(p: PriorNetParams, hidden: np.ndarray):
    """Heads applied to (..., h) hidden states; returns mean, var and pre-activations."""
    a = p.arrays
    trunk_pre = hidden @ a["w_trunk"].T + a["b_trunk"]
    trunk = np.maximum(trunk_pre, 0.0)
    mean_hidden_pre = trunk @ a["w_mean_hidden"].T + a["b_mean_hidden"]
    mean = np.maximum(mean_hidden_pre, 0.0) @ a["w_mean_out"].T + a["b_mean_out"]
    var_hidden_pre = trunk @ a["w_var_hidden"].T + a["b_var_hidden"]
    var_pre = np.maximum(var_hidden_pre, 0.0) @ a["w_var_out"].T + a["b_var_out"]
    var = softplus(var_pre)
    return mean, var, trunk_pre, mean_hidden_pre, var_hidden_pre, var_pre


def forward_batch(p: PriorNetParams, ys: np.ndarray):
    """Priors for a batch: ys (B, T, n) -> means (B, T, m), vars (B, T, m), cache.

    The prior for time t depends on y_{1:t-1} only; the last input column
    ys[:, T-1] is never consumed (strict causality).
    """
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 3:
        raise DimensionError(f"ys must be (B, T, n), got {ys.shape}")
    b, t_len, n = ys.shape
    if n != p.dims.input_dim:
        raise DimensionError(f"input dim {n} != network input dim {p.dims.input_dim}")
    w = _pack_cell(p)
    hidden = np.zeros((b, t_len, p.dims.hidden))
    x = _project_inputs(w, ys)
    for t in range(1, t_len):
        hidden[:, t] = _cell_forward(w, hidden[:, t - 1], x[t - 1])[0]
    del x
    mean, var, *head_pre = _heads_forward(p, hidden)
    return mean, var, ForwardCache(ys, hidden, *head_pre)


def _outer_sum(g_out: np.ndarray, x_in: np.ndarray) -> np.ndarray:
    """Weight gradient sum_{i,j} g_out[i, j] x_in[i, j]^T as one matmul."""
    return g_out.reshape(-1, g_out.shape[-1]).T @ x_in.reshape(-1, x_in.shape[-1])


def backward_batch(p: PriorNetParams, cache: ForwardCache,
                   g_mean: np.ndarray, g_var: np.ndarray) -> PriorNetParams:
    """Exact gradients of sum_t <g_mean_t, mean_t> + <g_var_t, var_t> wrt all parameters."""
    a = p.arrays
    g = {}
    trunk = np.maximum(cache.trunk_pre, 0.0)

    # Heads: the covariance output goes through softplus, the mean output is linear.
    g_var_pre = np.asarray(g_var, dtype=np.float64) * sigmoid(cache.var_pre)
    g_mean = np.asarray(g_mean, dtype=np.float64)
    g_trunk = 0.0
    heads = (("var", g_var_pre, cache.var_hidden_pre), ("mean", g_mean, cache.mean_hidden_pre))
    for head, g_out, hidden_pre in heads:
        g[f"w_{head}_out"] = _outer_sum(g_out, np.maximum(hidden_pre, 0.0))
        g[f"b_{head}_out"] = g_out.sum(axis=(0, 1))
        g_head = (g_out @ a[f"w_{head}_out"]) * (hidden_pre > 0.0)
        g[f"w_{head}_hidden"] = _outer_sum(g_head, trunk)
        g[f"b_{head}_hidden"] = g_head.sum(axis=(0, 1))
        g_trunk = g_trunk + g_head @ a[f"w_{head}_hidden"]

    # Shared trunk.
    g_trunk = g_trunk * (cache.trunk_pre > 0.0)
    g["w_trunk"] = _outer_sum(g_trunk, cache.hidden)
    g["b_trunk"] = g_trunk.sum(axis=(0, 1))
    g_hidden = g_trunk @ a["w_trunk"]  # (B, T, h)

    # Backpropagation through hidden[:, t] = cell(hidden[:, t-1], ys[:, t-1]). Every step's input
    # state is cached, so all steps' gates are recomputed at once and folded into factors.
    w = _pack_cell(p)
    h = w.w_c.shape[0]
    h_prev = cache.hidden[:, :-1].swapaxes(0, 1)
    _, r, u, c = _cell_forward(w, h_prev, _project_inputs(w, cache.ys))
    d_c = u * (1.0 - c * c)             # d c_pre / d h_new
    keep = 1.0 - u
    d_u = (c - h_prev) * u * keep       # d u_pre / d h_new
    d_r = h_prev * r * (1.0 - r)        # d r_pre / d (r * h_prev)

    g_pre = np.empty(h_prev.shape[:2] + (3 * h,))  # reset|update|candidate pre-activation grads
    g_h = np.zeros((len(cache.ys), h))
    for s in range(len(g_pre) - 1, -1, -1):
        g_h = g_h + g_hidden[:, s + 1]
        g_pre[s, :, 2 * h :] = g_c = g_h * d_c[s]
        g_rh = g_c @ w.w_c
        g_pre[s, :, :h] = g_rh * d_r[s]
        g_pre[s, :, h : 2 * h] = g_h * d_u[s]
        g_h = g_h * keep[s] + g_rh * r[s] + g_pre[s, :, : 2 * h] @ w.w_ru
    # The residual gradient on hidden[:, 0] lands on the constant zero initial
    # state and is discarded.

    y_prev = cache.ys[:, :-1].swapaxes(0, 1)
    g["w_reset_in"], g["w_update_in"], g["w_cand_in"] = np.split(_outer_sum(g_pre, y_prev), 3)
    g["b_reset"], g["b_update"], g["b_cand"] = np.split(g_pre.sum(axis=(0, 1)), 3)
    g["w_reset_rec"], g["w_update_rec"] = np.split(_outer_sum(g_pre[..., : 2 * h], h_prev), 2)
    g["w_cand_rec"] = _outer_sum(g_pre[..., 2 * h :], r * h_prev)
    return PriorNetParams(p.dims, g)


def save_params(p: PriorNetParams, path: str, extra_meta: dict | None = None) -> None:
    meta = {
        "input_dim": p.dims.input_dim,
        "state_dim": p.dims.state_dim,
        "hidden": p.dims.hidden,
        "trunk": p.dims.trunk,
        "head": p.dims.head,
    }
    if extra_meta:
        meta.update(extra_meta)
    write_container(path, kind="prior-net-params", meta=meta,
                    blocks=[(k, p.arrays[k]) for k in PARAM_KEYS])


def load_params(path: str) -> tuple[PriorNetParams, dict]:
    meta, blocks = read_container(path, expected_kind="prior-net-params")
    dims = NetDims(
        input_dim=int(meta["input_dim"]),
        state_dim=int(meta["state_dim"]),
        hidden=int(meta["hidden"]),
        trunk=int(meta["trunk"]),
        head=int(meta["head"]),
    )
    return PriorNetParams(dims, {k: blocks[k] for k in PARAM_KEYS}), meta
