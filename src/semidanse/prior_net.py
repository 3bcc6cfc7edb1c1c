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
when a pass starts; checkpoints keep the PARAM_KEYS blocks. The packed reset
and update rows are halved, so a step's reset|update pre-activation is
already x / 2 and sigmoid(x) = (1 + tanh(x / 2)) / 2 needs no multiply of its
own. Scaling by 0.5 is exact in binary floating point away from subnormals
and commutes with the rounding of every product, sum and fused multiply-add
that forms x, so the gates keep the bits of sigmoid(W_i y + b + W_r z);
backward_batch reads the unhalved weights from PriorNetParams.arrays. The
recurrence yields time-major time blocks of states: each projects its own
inputs, runs one (h, 2h) and one (h, h) matmul per step into scratch arrays of
the pass and carries its last state on. The heads are applied by the caller,
in its layout; numpy runs a matmul on stacked operands as one BLAS call per
leading index, over the rows of the second-to-last axis. Inference streams
fixed-length blocks, applies the heads to each block's (T_blk, B, h) states,
one call per step on the B rows, and caches nothing. forward_batch takes one
T-step block, applies the heads to its (B, T, h) view, one call per trajectory
on its T rows, and caches the states, gates and head activations for
backward_batch, which runs two matmuls per step on factors folded from the
gates. A workspace dict kept by the caller (_buffer) lets passes of one shape
reuse their buffers.

All gradients are exact reverse-mode (backpropagation through the unrolled
recurrence), implemented directly in numpy; there is no autodiff framework
underneath. Every entry point carries a (B, T, ...) leading layout; a single
trajectory is the B = 1 case of the same kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .exceptions import DimensionError, NumericError
from .numerics import SeededRng, require_finite_steps
from .serialize import read_container, require_match, write_container


@dataclass(frozen=True)
class NetDims:
    """Layer sizes: input_dim is the measurement dimension n and state_dim the state
    dimension m; the hidden, trunk and per-head widths are fixed, and checkpoints record them."""

    input_dim: int
    state_dim: int = 3
    hidden: ClassVar[int] = 30
    trunk: ClassVar[int] = 30
    head: ClassVar[int] = 32


# The fixed widths, as a checkpoint records them and must match them to load.
_WIDTHS = {"hidden": NetDims.hidden, "trunk": NetDims.trunk, "head": NetDims.head}


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


PARAM_KEYS = tuple(param_shapes(NetDims(input_dim=1)))  # the parameter order of vectors and files


@dataclass
class PriorNetParams:
    """All learnable weights and biases, keyed by PARAM_KEYS order."""

    dims: NetDims
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        shapes = param_shapes(self.dims)
        if set(self.arrays) != set(PARAM_KEYS):
            raise DimensionError("parameter keys do not match the architecture")
        arrays = {key: np.asarray(self.arrays[key], dtype=np.float64) for key in PARAM_KEYS}
        # One pass over all blocks; only a failure walks them to name the first bad one.
        finite = np.isfinite(np.concatenate(list(arrays.values()), axis=None)).all()
        for key, arr in arrays.items():
            if arr.shape != shapes[key]:
                raise DimensionError(f"{key}: shape {arr.shape}, expected {shapes[key]}")
            if not finite and not np.all(np.isfinite(arr)):
                raise NumericError(f"{key}: non-finite entries")
        self.arrays.update(arrays)

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


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(1 + tanh(x / 2)) / 2, into `out` when given (which may be x itself)."""
    out = np.tanh(np.multiply(x, 0.5, out=out), out=out)
    return np.multiply(np.add(out, 1.0, out=out), 0.5, out=out)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def _buffer(ws: dict | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A `shape` view of buffer `name` in workspace `ws`, a dict that the caller keeps across
    passes (None: fresh memory); each buffer grows to the largest shape asked of it."""
    size, ws = math.prod(shape), {} if ws is None else ws
    if name not in ws or ws[name].size < size:
        ws[name] = np.empty(size)
    return ws[name][:size].reshape(shape)


@dataclass
class ForwardCache:
    """What backward_batch reads: inputs, states, gate values and head activations."""

    ys: np.ndarray           # (B, T, n)
    hidden: np.ndarray       # (T, B, h), time-major; hidden[t] feeds the heads for prior t+1
    ru: np.ndarray           # (T-1, B, 2h), reset|update gates of the step into hidden[t+1]
    cand: np.ndarray         # (T-1, B, h), candidate of that step
    trunk: np.ndarray        # (B, T, h2), post-ReLU
    mean_hidden: np.ndarray  # (B, T, h3), post-ReLU
    var_hidden: np.ndarray   # (B, T, h3), post-ReLU
    var_pre: np.ndarray      # (B, T, m), softplus input


class _PackedCell(NamedTuple):
    """One pass's gate weights, stacked in reset|update|candidate order with the reset and
    update rows halved, and the scratch of its (B, h) steps."""

    w_in: np.ndarray    # (3h, n)
    b: np.ndarray       # (3h,)
    w_ru_t: np.ndarray  # (h, 2h), reset|update recurrent weights, transposed
    w_c_t: np.ndarray   # (h, h), candidate recurrent weight, transposed
    rec_ru: np.ndarray  # (B, 2h) scratch: z W_ru^T
    rh: np.ndarray      # (B, h) scratch: r * z
    rec_c: np.ndarray   # (B, h) scratch: (r * z) W_c^T


def _pack_cell(p: PriorNetParams, batch: int) -> _PackedCell:
    a, h = p.arrays, p.dims.hidden
    w_in = np.concatenate([a["w_reset_in"], a["w_update_in"], a["w_cand_in"]])
    b = np.concatenate([a["b_reset"], a["b_update"], a["b_cand"]])
    w_ru = np.concatenate([a["w_reset_rec"], a["w_update_rec"]])
    w_in[: 2 * h] *= 0.5
    b[: 2 * h] *= 0.5
    w_ru *= 0.5
    return _PackedCell(w_in, b, w_ru.T, a["w_cand_rec"].T,
                       np.empty((batch, 2 * h)), np.empty((batch, h)), np.empty((batch, h)))


def _cell_step(w: _PackedCell, h_prev: np.ndarray, ru: np.ndarray, c: np.ndarray,
               out: np.ndarray) -> None:
    """One step on (B, h) states: ru (B, 2h) holds (W_in y + b) / 2 and c (B, h) holds
    W_in y + b; both are turned into the gate values in place, the new state goes to `out`,
    apart from h_prev. sigmoid(x) = (1 + tanh(x / 2)) / 2 on the halved ru."""
    h = h_prev.shape[-1]
    ru += np.matmul(h_prev, w.w_ru_t, out=w.rec_ru)
    np.tanh(ru, out=ru)
    ru += 1.0
    ru *= 0.5
    c += np.matmul(np.multiply(ru[:, :h], h_prev, out=w.rh), w.w_c_t, out=w.rec_c)
    np.tanh(c, out=c)
    np.multiply(np.subtract(c, h_prev, out=out), ru[:, h:], out=out)
    out += h_prev


def _heads_forward(p: PriorNetParams, hidden: np.ndarray, ws: dict | None = None):
    """Heads on (..., h) states: mean, var, post-ReLU trunk and head layers, softplus input."""
    a = p.arrays

    def relu_layer(x, key):
        y = np.matmul(x, a[f"w_{key}"].T, out=_buffer(ws, key, x.shape[:-1] + a[f"b_{key}"].shape))
        y += a[f"b_{key}"]
        return np.maximum(y, 0.0, out=y)

    trunk = relu_layer(hidden, "trunk")
    mean_hidden, var_hidden = relu_layer(trunk, "mean_hidden"), relu_layer(trunk, "var_hidden")
    var_pre = var_hidden @ a["w_var_out"].T + a["b_var_out"]
    return (mean_hidden @ a["w_mean_out"].T + a["b_mean_out"], softplus(var_pre),
            trunk, mean_hidden, var_hidden, var_pre)


def _prior_blocks(p: PriorNetParams, ys: np.ndarray, block: int | None, ws: dict | None):
    """The one recurrence: the states of float64 ys (B, T, n) in blocks of `block` (None: T)
    steps, without the heads, which each caller applies in its own layout (_heads_forward).

    Yields (t0, hidden, ru, cand) per block, time-major as in ForwardCache; blocks after the
    first also hold the gates of the step into their first state. A block carries its last
    state into the next, which overwrites its arrays in ws. Every matmul of the recurrence
    runs once per step on the B rows, so a state's bits do not depend on the blocking."""
    if ys.ndim != 3 or ys.shape[1] < 1 or ys.shape[2] != p.dims.input_dim:
        raise DimensionError(f"ys {ys.shape} is not (B, T >= 1, n = {p.dims.input_dim})")
    require_finite_steps(ys, "measurement y")
    (b, t_len, _), h, ws = ys.shape, p.dims.hidden, {} if ws is None else ws
    w, state, block = _pack_cell(p, b), np.zeros((b, h)), block or t_len
    # Sized once for the largest block (block + 1 states from the second block on), so no
    # block allocates new arrays while the previous block's are still referenced.
    rows = min(block + 1, t_len)
    _buffer(ws, "hidden", (rows, b, h))
    _buffer(ws, "ru", (rows - 1, b, 2 * h))
    _buffer(ws, "cand", (rows - 1, b, h))
    for t0 in range(0, t_len, block):
        t1, lo = min(t0 + block, t_len), max(t0 - 1, 0)  # states lo .. t1 - 1 of the block
        y_in, states = ys[:, lo : t1 - 1].swapaxes(0, 1), _buffer(ws, "hidden", (t1 - lo, b, h))
        ru = np.matmul(y_in, w.w_in[: 2 * h].T, out=_buffer(ws, "ru", (t1 - 1 - lo, b, 2 * h)))
        ru += w.b[: 2 * h]
        cand = np.matmul(y_in, w.w_in[2 * h :].T, out=_buffer(ws, "cand", (t1 - 1 - lo, b, h)))
        cand += w.b[2 * h :]
        states[0] = state
        for i in range(1, len(states)):
            _cell_step(w, states[i - 1], ru[i - 1], cand[i - 1], states[i])
        state = states[-1].copy()
        yield t0, states[t0 - lo :], ru, cand


def forward_batch(p: PriorNetParams, ys: np.ndarray, ws: dict | None = None):
    """Priors for a batch: ys (B, T, n) -> means (B, T, m), vars (B, T, m), cache.

    The prior for time t depends on y_{1:t-1} only; the last input column
    ys[:, T-1] is never consumed (strict causality). The cache lives in `ws` (_buffer).
    """
    ys = np.asarray(ys, dtype=np.float64)
    ((_, hidden, ru, cand),) = _prior_blocks(p, ys, None, ws)
    mean, var, *acts = _heads_forward(p, hidden.swapaxes(0, 1), ws)
    return mean, var, ForwardCache(ys, hidden, ru, cand, *acts)


def _outer_sum(g_out: np.ndarray, x_in: np.ndarray) -> np.ndarray:
    """Weight gradient sum_{i,j} g_out[i, j] x_in[i, j]^T as one matmul."""
    return g_out.reshape(-1, g_out.shape[-1]).T @ x_in.reshape(-1, x_in.shape[-1])


def backward_batch(p: PriorNetParams, cache: ForwardCache, g_mean: np.ndarray,
                   g_var: np.ndarray, ws: dict | None = None) -> PriorNetParams:
    """Exact gradients of sum_t <g_mean_t, mean_t> + <g_var_t, var_t> wrt all parameters."""
    a = p.arrays
    g = {}

    # Heads: the covariance output goes through softplus, the mean output is linear.
    g_var_pre = np.asarray(g_var, dtype=np.float64) * sigmoid(cache.var_pre)
    g_mean = np.asarray(g_mean, dtype=np.float64)
    g_trunk = _buffer(ws, "g_trunk", cache.trunk.shape)
    g_trunk[...] = 0.0
    heads = (("var", g_var_pre, cache.var_hidden), ("mean", g_mean, cache.mean_hidden))
    for head, g_out, act in heads:
        g[f"w_{head}_out"] = _outer_sum(g_out, act)
        g[f"b_{head}_out"] = g_out.sum(axis=(0, 1))
        g_head = np.matmul(g_out, a[f"w_{head}_out"], out=_buffer(ws, "g_head", act.shape))
        g_head *= act > 0.0
        g[f"w_{head}_hidden"] = _outer_sum(g_head, cache.trunk)
        g[f"b_{head}_hidden"] = g_head.sum(axis=(0, 1))
        g_trunk += np.matmul(g_head, a[f"w_{head}_hidden"], out=_buffer(ws, "tmp", g_trunk.shape))

    # Shared trunk, on a batch-major copy of the states.
    g_trunk *= cache.trunk > 0.0
    batch_major = _buffer(ws, "tmp", cache.ys.shape[:2] + cache.hidden.shape[-1:])
    batch_major[...] = cache.hidden.swapaxes(0, 1)
    g["w_trunk"] = _outer_sum(g_trunk, batch_major)
    g["b_trunk"] = g_trunk.sum(axis=(0, 1))
    g_hidden = np.matmul(g_trunk, a["w_trunk"], out=batch_major)  # (B, T, h)

    # Backpropagation through hidden[t] = cell(hidden[t-1], ys[:, t-1]) on per-step contiguous
    # factors of cached gates: d_r = dr_pre/d(r h_prev), d_u = du_pre/dh_new, d_c = dc_pre/dh_new
    w_ru, w_c = np.concatenate([a["w_reset_rec"], a["w_update_rec"]]), a["w_cand_rec"]
    h = p.dims.hidden
    h_prev, r, u, c = cache.hidden[:-1], cache.ru[..., :h], cache.ru[..., h:], cache.cand
    d_r, d_u, keep, d_c = _buffer(ws, "factors", (4,) + h_prev.shape)
    rh = np.multiply(h_prev, r, out=_buffer(ws, "rh", h_prev.shape))
    np.multiply(np.subtract(1.0, r, out=d_r), rh, out=d_r)
    np.subtract(1.0, u, out=keep)
    np.multiply(np.multiply(np.subtract(c, h_prev, out=d_u), u, out=d_u), keep, out=d_u)
    np.multiply(np.subtract(1.0, np.multiply(c, c, out=d_c), out=d_c), u, out=d_c)

    g_pre = _buffer(ws, "g_pre", h_prev.shape[:2] + (3 * h,))  # reset|update|candidate
    g_r, g_u, g_c = g_pre[..., :h], g_pre[..., h : 2 * h], g_pre[..., 2 * h :]
    g_ru, g_out = g_pre[..., : 2 * h], g_hidden.swapaxes(0, 1)[1:]  # g_out[s] reaches hidden[s + 1]
    g_h = np.zeros((len(cache.ys), h))
    g_rh, g_rec = np.empty_like(g_h), np.empty_like(g_h)  # matmul outputs of a step
    for s in range(len(g_pre) - 1, -1, -1):
        g_h += g_out[s]
        np.matmul(np.multiply(g_h, d_c[s], out=g_c[s]), w_c, out=g_rh)
        np.multiply(g_rh, d_r[s], out=g_r[s])
        np.multiply(g_h, d_u[s], out=g_u[s])
        g_h *= keep[s]
        g_rh *= r[s]
        g_h += g_rh
        g_h += np.matmul(g_ru[s], w_ru, out=g_rec)
    # The residual gradient on hidden[0] lands on the constant zero initial
    # state and is discarded.

    y_prev, rows = cache.ys[:, :-1].swapaxes(0, 1), g_pre.reshape(-1, 3 * h)
    w_in, b = _outer_sum(g_pre, y_prev), g_pre.sum(axis=(0, 1))
    w_rec = _outer_sum(rows[:, : 2 * h], h_prev)
    for i, gate in enumerate(("reset", "update", "cand")):
        g[f"w_{gate}_in"], g[f"b_{gate}"] = w_in[i * h : (i + 1) * h], b[i * h : (i + 1) * h]
    g["w_reset_rec"], g["w_update_rec"] = w_rec[:h], w_rec[h:]
    g["w_cand_rec"] = _outer_sum(rows[:, 2 * h :], rh)
    try:
        return PriorNetParams(p.dims, g)
    except NumericError as exc:
        raise NumericError(f"gradient {exc}") from None


def save_params(p: PriorNetParams, path: str, meta: dict) -> None:
    """Write a checkpoint: the PARAM_KEYS blocks, and `meta` beside the layer sizes."""
    sizes = {"input_dim": p.dims.input_dim, "state_dim": p.dims.state_dim, **_WIDTHS}
    write_container(path, kind="prior-net-params", meta={**sizes, **meta},
                    blocks=[(k, p.arrays[k]) for k in PARAM_KEYS])


def load_params(path: str) -> tuple[PriorNetParams, dict]:
    """(parameters, meta) of a checkpoint. One that records other hidden, trunk or head
    widths than NetDims is refused with ArtifactMismatchError naming the width."""
    meta, blocks = read_container(path, expected_kind="prior-net-params")
    require_match("checkpoint", path, meta, _WIDTHS)
    dims = NetDims(input_dim=int(meta["input_dim"]), state_dim=int(meta["state_dim"]))
    return PriorNetParams(dims, {k: blocks[k] for k in PARAM_KEYS}), meta
