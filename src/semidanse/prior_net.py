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

All gradients are exact reverse-mode (backpropagation through the unrolled
recurrence), implemented directly in numpy; there is no autodiff framework
underneath. Every entry point carries a (B, T, ...) leading layout; a single
trajectory is the B = 1 case of the same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


@dataclass(frozen=True)
class PriorOutput:
    """Gaussian prior parameters for a single time step."""

    mean: np.ndarray      # (m,)
    diag_cov: np.ndarray  # (m,), strictly positive

    def __post_init__(self):
        if np.any(np.asarray(self.diag_cov) <= 0.0):
            raise ValueError("diag_cov entries must be positive")


@dataclass
class ForwardCache:
    """Intermediate activations needed by the exact backward pass."""

    ys: np.ndarray          # (B, T, n)
    hidden: np.ndarray      # (B, T, h); hidden[:, t] feeds the heads for prior t+1
    reset: np.ndarray       # (B, T-1, h)
    update: np.ndarray      # (B, T-1, h)
    cand: np.ndarray        # (B, T-1, h)
    trunk_pre: np.ndarray   # (B, T, h2)
    mean_hidden_pre: np.ndarray  # (B, T, h3)
    var_hidden_pre: np.ndarray   # (B, T, h3)
    var_pre: np.ndarray     # (B, T, m), softplus pre-activation


def _cell_forward(p: PriorNetParams, h_prev: np.ndarray, y: np.ndarray):
    """One gated-cell step for (B, h) hidden and (B, n) input rows."""
    a = p.arrays
    r = sigmoid(y @ a["w_reset_in"].T + h_prev @ a["w_reset_rec"].T + a["b_reset"])
    u = sigmoid(y @ a["w_update_in"].T + h_prev @ a["w_update_rec"].T + a["b_update"])
    c = np.tanh(y @ a["w_cand_in"].T + (r * h_prev) @ a["w_cand_rec"].T + a["b_cand"])
    h_new = (1.0 - u) * h_prev + u * c
    return h_new, r, u, c


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
    h = p.dims.hidden
    hidden = np.zeros((b, t_len, h))
    reset = np.empty((b, max(t_len - 1, 0), h))
    update = np.empty_like(reset)
    cand = np.empty_like(reset)
    z = np.zeros((b, h))
    for t in range(1, t_len):
        z, r, u, c = _cell_forward(p, z, ys[:, t - 1])
        hidden[:, t] = z
        reset[:, t - 1] = r
        update[:, t - 1] = u
        cand[:, t - 1] = c
    mean, var, trunk_pre, mh_pre, vh_pre, var_pre = _heads_forward(p, hidden)
    cache = ForwardCache(
        ys=ys, hidden=hidden, reset=reset, update=update, cand=cand,
        trunk_pre=trunk_pre, mean_hidden_pre=mh_pre, var_hidden_pre=vh_pre,
        var_pre=var_pre,
    )
    return mean, var, cache


def backward_batch(p: PriorNetParams, cache: ForwardCache,
                   g_mean: np.ndarray, g_var: np.ndarray) -> PriorNetParams:
    """Exact gradients of sum_t <g_mean_t, mean_t> + <g_var_t, var_t> wrt all parameters."""
    a = p.arrays
    g = {k: np.zeros_like(v) for k, v in a.items()}
    hidden = cache.hidden
    trunk = np.maximum(cache.trunk_pre, 0.0)
    mean_hidden = np.maximum(cache.mean_hidden_pre, 0.0)
    var_hidden = np.maximum(cache.var_hidden_pre, 0.0)

    # Covariance head (softplus output).
    g_var_pre = np.asarray(g_var, dtype=np.float64) * sigmoid(cache.var_pre)
    g["w_var_out"] += np.einsum("btm,bth->mh", g_var_pre, var_hidden)
    g["b_var_out"] += g_var_pre.sum(axis=(0, 1))
    g_vh = (g_var_pre @ a["w_var_out"]) * (cache.var_hidden_pre > 0.0)
    g["w_var_hidden"] += np.einsum("bth,btk->hk", g_vh, trunk)
    g["b_var_hidden"] += g_vh.sum(axis=(0, 1))

    # Mean head (linear output).
    g_mean = np.asarray(g_mean, dtype=np.float64)
    g["w_mean_out"] += np.einsum("btm,bth->mh", g_mean, mean_hidden)
    g["b_mean_out"] += g_mean.sum(axis=(0, 1))
    g_mh = (g_mean @ a["w_mean_out"]) * (cache.mean_hidden_pre > 0.0)
    g["w_mean_hidden"] += np.einsum("bth,btk->hk", g_mh, trunk)
    g["b_mean_hidden"] += g_mh.sum(axis=(0, 1))

    # Shared trunk.
    g_trunk = (g_mh @ a["w_mean_hidden"] + g_vh @ a["w_var_hidden"]) * (cache.trunk_pre > 0.0)
    g["w_trunk"] += np.einsum("bth,btk->hk", g_trunk, hidden)
    g["b_trunk"] += g_trunk.sum(axis=(0, 1))
    g_hidden = g_trunk @ a["w_trunk"]  # (B, T, h)

    # Backpropagation through time. hidden[:, t] = cell(hidden[:, t-1], ys[:, t-1]).
    t_len = hidden.shape[1]
    g_h = np.zeros((hidden.shape[0], hidden.shape[2]))
    for t in range(t_len - 1, 0, -1):
        g_h = g_h + g_hidden[:, t]
        h_prev = hidden[:, t - 1]
        y_in = cache.ys[:, t - 1]
        r = cache.reset[:, t - 1]
        u = cache.update[:, t - 1]
        c = cache.cand[:, t - 1]

        g_u = g_h * (c - h_prev)
        g_c = g_h * u
        g_hprev = g_h * (1.0 - u)

        g_c_pre = g_c * (1.0 - c * c)
        g["w_cand_in"] += g_c_pre.T @ y_in
        g["w_cand_rec"] += g_c_pre.T @ (r * h_prev)
        g["b_cand"] += g_c_pre.sum(axis=0)
        g_rh = g_c_pre @ a["w_cand_rec"]
        g_r = g_rh * h_prev
        g_hprev = g_hprev + g_rh * r

        g_u_pre = g_u * u * (1.0 - u)
        g["w_update_in"] += g_u_pre.T @ y_in
        g["w_update_rec"] += g_u_pre.T @ h_prev
        g["b_update"] += g_u_pre.sum(axis=0)
        g_hprev = g_hprev + g_u_pre @ a["w_update_rec"]

        g_r_pre = g_r * r * (1.0 - r)
        g["w_reset_in"] += g_r_pre.T @ y_in
        g["w_reset_rec"] += g_r_pre.T @ h_prev
        g["b_reset"] += g_r_pre.sum(axis=0)
        g_hprev = g_hprev + g_r_pre @ a["w_reset_rec"]

        g_h = g_hprev
    # The residual gradient on hidden[:, 0] lands on the constant zero initial
    # state and is discarded.
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
