"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other jobs, and the host's
speed swings by 20-40% over tens of seconds. To take that out of the
end-to-end figures, the runner repeats this loop for a while after every
set-up round and every operation, and scales every time of the run by how
long one repeat took on average over all those blocks (see `normalise`).
Timing a run's speed over blocks spread through all of it proved steadier than
timing each operation by the blocks next to it: the loop reacts to the
host's second-to-second swings more than the program does.

The loop does the same kinds of work as the program, in plain numpy that does
not depend on it: a gated recurrent cell over a (16, 100) batch of short
sequences, like the prior network, and a batched 3 x 3 covariance recursion
over 100 filters, like the EKF. Its inputs are fixed, so every pass does the
same work whatever the workload seed.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal time of one repeat of the loop. A normalised time is the measured
# time scaled to a host on which one repeat takes exactly this long.
REPEAT_S = 0.017


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20240710)
        hidden = 30
        self.hidden = hidden
        self.w_in = rng.standard_normal((3 * hidden, 2)) * 0.3
        self.w_rec = rng.standard_normal((3 * hidden, hidden)) * 0.1
        self.w_head = rng.standard_normal((32, hidden)) * 0.1
        self.ys = rng.standard_normal((16, 100, 2))
        self.jacobians = np.eye(3) + 0.01 * rng.standard_normal((100, 100, 3, 3))
        self.innovations = rng.standard_normal((100, 100, 2, 1))
        self.h = rng.standard_normal((2, 3))
        self.blocks: list[tuple[float, int]] = []

    def _recurrence(self):
        n = self.hidden
        w_reset, w_update, w_cand = self.w_rec[:n].T, self.w_rec[n:2 * n].T, self.w_rec[2 * n:].T
        z = np.zeros((self.ys.shape[0], n))
        for t in range(self.ys.shape[1]):
            g = self.ys[:, t] @ self.w_in.T
            r = 1.0 / (1.0 + np.exp(-(g[:, :n] + z @ w_reset)))
            u = 1.0 / (1.0 + np.exp(-(g[:, n:2 * n] + z @ w_update)))
            c = np.tanh(g[:, 2 * n:] + (r * z) @ w_cand)
            z = (1.0 - u) * z + u * c
            np.maximum(z @ self.w_head.T, 0.0)

    def _covariances(self):
        eye3, eye2 = np.eye(3), np.eye(2)
        p = np.broadcast_to(eye3, (100, 3, 3)).copy()
        x = np.zeros((100, 3))
        for t in range(self.jacobians.shape[0]):
            jac = self.jacobians[t]
            p = jac @ p @ jac.transpose(0, 2, 1) + 0.01 * eye3
            p = 0.5 * (p + p.transpose(0, 2, 1))
            s = self.h @ p @ self.h.T + eye2
            gain = p @ self.h.T @ np.linalg.inv(s)
            x = x + (gain @ self.innovations[t])[..., 0]
            p = p - gain @ self.h @ p

    def run(self, seconds: float) -> tuple[float, int]:
        """Repeat the loop for at least `seconds` (at least once); keep and return (time, repeats)."""
        started, count = time.perf_counter(), 0
        while not count or time.perf_counter() - started < seconds:
            self._recurrence()
            self._covariances()
            count += 1
        block = (time.perf_counter() - started, count)
        self.blocks.append(block)
        return block

    def repeat_s(self) -> float:
        """Mean time of one repeat over every block run so far."""
        return sum(t for t, _ in self.blocks) / sum(n for _, n in self.blocks)

    def normalise(self, seconds: float) -> float:
        """Scale a time to a host on which one repeat of the loop takes REPEAT_S."""
        return seconds * REPEAT_S / self.repeat_s()
