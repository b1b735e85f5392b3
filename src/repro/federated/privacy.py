"""Differential privacy for uploaded model parameters.

LightTR's privacy argument is architectural (raw trajectories never
leave the client), but the FL literature the paper builds on [20]
strengthens this with differentially-private uploads.  This module adds
the standard Gaussian mechanism: clip each client's *update* (delta from
the broadcast global model) to a global L2 norm, then add isotropic
Gaussian noise calibrated by a noise multiplier.

The epsilon estimate uses the classic analytic bound for the Gaussian
mechanism under k-fold composition - intentionally simple (no RDP
accounting) and documented as an upper-bound sketch, which is the right
scope for a reproduction.
"""

from __future__ import annotations

import math
from collections import OrderedDict

import numpy as np

__all__ = ["GaussianMechanism"]


class GaussianMechanism:
    """Clip-and-noise privatisation of client updates.

    Parameters
    ----------
    clip_norm:
        Maximum global L2 norm of a client's update (delta of all
        parameters, concatenated).
    noise_multiplier:
        Noise standard deviation as a multiple of ``clip_norm``
        (``sigma = noise_multiplier * clip_norm``).  0 disables noise
        (clipping still applies).
    rng:
        Seeded generator for the noise.
    """

    def __init__(self, clip_norm: float, noise_multiplier: float,
                 rng: np.random.Generator):
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.clip_norm = clip_norm
        self.noise_multiplier = noise_multiplier
        self._rng = rng

    def privatize_update_flat(self, local_flat: np.ndarray,
                              global_flat: np.ndarray) -> np.ndarray:
        """Clip-and-noise one flat parameter vector (the hot-path variant).

        Identical mechanism to :meth:`privatize_update`, but the update
        delta, its norm, the clipping, and the noise are all single
        vectorized operations on ``(P,)`` arrays.
        """
        # Deliberate float64 upcast (not a hot-path leak): clipping norms
        # and noise calibration run at master precision whatever the
        # compute dtype or the codec's wire precision.
        local_flat = np.asarray(local_flat, dtype=np.float64)
        global_flat = np.asarray(global_flat, dtype=np.float64)
        if local_flat.shape != global_flat.shape:
            raise ValueError("local and global vectors have different sizes")
        delta = local_flat - global_flat
        total_norm = float(np.sqrt(np.dot(delta, delta)))
        scale = min(1.0, self.clip_norm / (total_norm + 1e-12))
        clipped = delta * scale
        sigma = self.noise_multiplier * self.clip_norm
        if sigma > 0:
            clipped = clipped + self._rng.normal(0.0, sigma, size=clipped.shape)
        return global_flat + clipped

    def privatize_update(self, local_state: dict, global_state: dict) -> dict:
        """Return a privatised version of ``local_state``.

        The update ``local - global`` is clipped to ``clip_norm`` and
        noised; the result is ``global + clipped_noised_update`` so the
        server-side aggregation code is unchanged.
        """
        keys = list(local_state.keys())
        if set(keys) != set(global_state.keys()):
            raise KeyError("local and global states have different parameters")
        deltas = {k: np.asarray(local_state[k], dtype=np.float64)
                  - np.asarray(global_state[k], dtype=np.float64)
                  for k in keys}
        total_norm = math.sqrt(sum(float((d * d).sum()) for d in deltas.values()))
        scale = min(1.0, self.clip_norm / (total_norm + 1e-12))
        sigma = self.noise_multiplier * self.clip_norm
        private = OrderedDict()
        for k in keys:
            clipped = deltas[k] * scale
            if sigma > 0:
                clipped = clipped + self._rng.normal(0.0, sigma,
                                                     size=clipped.shape)
            private[k] = np.asarray(global_state[k], dtype=np.float64) + clipped
        return private

    def epsilon_estimate(self, rounds: int, delta: float = 1e-5) -> float:
        """Rough (eps, delta)-DP upper bound after ``rounds`` releases.

        Single release: the Gaussian mechanism with
        ``sigma = z * clip`` and sensitivity ``clip`` satisfies
        ``eps_1 = sqrt(2 ln(1.25/delta)) / z``.  Under basic
        composition over k rounds, ``eps <= k * eps_1``.  Returns
        ``inf`` when noise is disabled.
        """
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.noise_multiplier == 0:
            return math.inf
        eps_single = math.sqrt(2.0 * math.log(1.25 / delta)) / self.noise_multiplier
        return rounds * eps_single
