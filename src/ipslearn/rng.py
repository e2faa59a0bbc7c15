"""Counter-based random number streams.

Every consumer of randomness owns an independent Philox stream identified by
a (seed, stream_id) pair.  Identical pairs reproduce identical sequences
bit-for-bit; distinct pairs are statistically independent.  Trajectories use
one stream per particle (stream_id = particle index) plus a reserved stream
for parameter initialisation, so results do not depend on how many particles
or replicates run alongside each other.
"""

from __future__ import annotations

import math

import numpy as np

# Stream id reserved for drawing initial parameter estimates; particle
# stream ids are always < 2**32, so there is no collision.
PARAM_INIT_STREAM = 2**63

GENERATOR_NAME = "numpy-philox4x64"

# Steps per BlockedNoise refill, and the byte budget of its buffer, which
# bounds that block length.
NOISE_BLOCK_STEPS = 512
NOISE_BUFFER_BYTES = 4 * 1024 * 1024

_U64 = np.uint64
_MASK64 = (1 << 64) - 1


class RngStream:
    """An independent Gaussian increment stream keyed by (seed, stream_id).

    The underlying generator is Philox (counter-based); the key is the
    (seed, stream_id) pair, so streams with distinct ids never overlap.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = seed & _MASK64
        self.stream_id = stream_id & _MASK64
        key = np.array([self.seed, self.stream_id], dtype=_U64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normals(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniforms(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Seed ladder: replicate r uses base_seed + r (mod 2**64)."""
    return (base_seed + replicate) & _MASK64


def particle_streams(seed: int, n_particles: int) -> list[RngStream]:
    """One stream per particle, stream_id = particle index."""
    return [RngStream(seed, i) for i in range(n_particles)]


class BlockedNoise:
    """Per-step (S, d) Gaussian increments from S streams, for `n_steps`
    steps, drawn in blocks.

    Drawing a block of steps per stream amortises generator-call overhead;
    the per-stream value sequence is identical to drawing one step at a time,
    whatever the block length.  The buffer is laid out (block, S, d), so a
    step is one contiguous slice.  A block is NOISE_BLOCK_STEPS (512) steps,
    and the buffer holds at most NOISE_BUFFER_BYTES (4 MiB): the block
    shrinks to fit, but never below 16 steps.  No refill draws past the
    last step, and a step past it raises.
    """

    def __init__(self, streams: list[RngStream], d: int, dt: float, n_steps: int):
        self.streams = streams
        self.d = d
        self.sqrt_dt = math.sqrt(dt)
        self.block = min(NOISE_BLOCK_STEPS,
                         max(16, NOISE_BUFFER_BYTES // (8 * len(streams) * d)))
        self._buf = np.empty((min(self.block, n_steps), len(streams), d))
        self._left = n_steps  # steps not drawn yet
        self._pos = self._end = 0  # the next step and the end of the drawn ones in _buf

    def initial_positions(self) -> np.ndarray:
        """Draw (S, d) standard normals, one d-vector per stream.

        Consumed before any increments so the initial condition and the
        noise path come from the same per-particle stream.
        """
        out = np.empty((len(self.streams), self.d))
        for k, s in enumerate(self.streams):
            out[k] = s.standard_normals(self.d)
        return out

    def next_step(self) -> np.ndarray:
        if self._pos == self._end:
            rows = min(len(self._buf), self._left)
            if rows == 0:
                raise RuntimeError("every step of this noise has been drawn")
            buf = self._buf[:rows]
            for k, s in enumerate(self.streams):
                buf[:, k] = s.standard_normals((rows, self.d))
            buf *= self.sqrt_dt
            self._left -= rows
            self._pos, self._end = 0, rows
        out = self._buf[self._pos].copy()
        self._pos += 1
        return out
