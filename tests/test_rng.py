import math

import numpy as np
import pytest

from ipslearn.rng import (
    NOISE_BLOCK_STEPS,
    NOISE_BUFFER_BYTES,
    BlockedNoise,
    RngStream,
    particle_streams,
    replicate_seed,
)


def increments(rng, n, d, dt):
    """Oracle: n steps of Normal(0, dt) increments drawn straight from one stream."""
    return rng.standard_normals((n, d)) * math.sqrt(dt)


def test_same_key_reproduces_bitwise():
    a = increments(RngStream(1, 0), 2, 1, 0.1)
    b = increments(RngStream(1, 0), 2, 1, 0.1)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = increments(RngStream(1, 0), 100, 1, 0.1)
    b = increments(RngStream(1, 1), 100, 1, 0.1)
    assert not np.array_equal(a, b)
    # crude independence check: empirical correlation is small
    r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
    assert abs(r) < 0.3


def test_increment_variance_matches_dt():
    # Monte Carlo oracle: sample variance of Normal(0, dt) draws
    draws = increments(RngStream(7, 0), 10**6, 1, 0.1)
    assert abs(draws.var() - 0.1) < 0.001
    assert abs(draws.mean()) < 0.001


def test_blocked_noise_matches_direct_draws(monkeypatch):
    # block size must not change the per-stream value sequence
    monkeypatch.setattr("ipslearn.rng.NOISE_BLOCK_STEPS", 16)
    dt = 0.1
    direct = [increments(RngStream(5, i), 70, 2, dt) for i in range(3)]
    noise = BlockedNoise(particle_streams(5, 3), d=2, dt=dt, n_steps=70)
    for step in range(70):
        dw = noise.next_step()
        for i in range(3):
            assert np.array_equal(dw[i], direct[i][step])


def _steps(noise, n):
    return np.stack([noise.next_step() for _ in range(n)])


@pytest.mark.parametrize("block", [1, 512])
def test_stream_values_do_not_depend_on_block(block, monkeypatch):
    # every stream's increments, bit for bit, over several refills; block 16
    # is the case above
    monkeypatch.setattr("ipslearn.rng.NOISE_BLOCK_STEPS", block)
    dt, n = 0.03, 1100
    direct = np.stack([increments(RngStream(4, i), n, 2, dt) for i in range(3)], axis=1)
    noise = BlockedNoise(particle_streams(4, 3), d=2, dt=dt, n_steps=n)
    assert noise.block == block
    assert _steps(noise, n).view(np.uint64).tolist() == direct.view(np.uint64).tolist()


def test_byte_capped_block_keeps_stream_values():
    # 3000 streams of d = 2 cap the block at 4 MiB // (8 * 6000) = 87 steps
    dt, n = 0.5, 200
    streams = 3000
    noise = BlockedNoise(particle_streams(8, streams), d=2, dt=dt, n_steps=n)
    assert noise.block == NOISE_BUFFER_BYTES // (8 * streams * 2) == 87
    got = _steps(noise, n)
    for i in (0, 1, 1234, streams - 1):
        want = increments(RngStream(8, i), n, 2, dt)
        assert got[:, i].view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("streams,d", [(1, 1), (1000, 1), (1024, 2), (2000, 2), (4096, 8)])
def test_noise_buffer_stays_within_its_byte_budget(streams, d):
    # the block never drops below 16, so the cap holds whenever 16 steps fit
    assert 16 * 8 * streams * d <= NOISE_BUFFER_BYTES
    noise = BlockedNoise([RngStream(1, i) for i in range(streams)], d=d, dt=0.1,
                         n_steps=NOISE_BLOCK_STEPS)
    assert 16 <= noise.block <= NOISE_BLOCK_STEPS
    assert noise._buf.nbytes <= NOISE_BUFFER_BYTES


def test_next_step_returns_an_array_the_caller_owns(monkeypatch):
    # 40 steps span two refills of a 16-step block; no refill or write by the
    # caller may reach a step already handed out
    monkeypatch.setattr("ipslearn.rng.NOISE_BLOCK_STEPS", 16)
    noise = BlockedNoise(particle_streams(2, 4), d=2, dt=0.1, n_steps=40)
    steps = [noise.next_step() for _ in range(40)]
    assert all(s.flags.owndata and not np.shares_memory(s, noise._buf) for s in steps)
    steps[0][:] = np.nan
    again = BlockedNoise(particle_streams(2, 4), d=2, dt=0.1, n_steps=40)
    want = [again.next_step() for _ in range(40)]
    assert [s.tobytes() for s in steps[1:]] == [w.tobytes() for w in want[1:]]


def test_noise_draws_no_step_past_its_last(monkeypatch):
    # 20 steps over blocks of 16: the second refill draws 4 steps; each
    # stream is then 20 draws on, and a 21st step raises
    monkeypatch.setattr("ipslearn.rng.NOISE_BLOCK_STEPS", 16)
    streams = particle_streams(3, 2)
    noise = BlockedNoise(streams, d=1, dt=0.1, n_steps=20)
    got = _steps(noise, 20)
    direct = np.stack([increments(RngStream(3, i), 20, 1, 0.1) for i in range(2)], axis=1)
    assert got.tobytes() == direct.tobytes()
    with pytest.raises(RuntimeError, match="every step"):
        noise.next_step()
    for i, stream in enumerate(streams):
        assert stream.standard_normals(1) == RngStream(3, i).standard_normals(21)[-1]
    assert BlockedNoise(particle_streams(3, 2), d=1, dt=0.1, n_steps=1)._buf.shape == (1, 2, 1)


def test_initial_positions_consume_streams_first():
    # a 2-particle system and a 5-particle system share the first two
    # streams: initial draws and subsequent increments must agree
    small = BlockedNoise(particle_streams(9, 2), d=1, dt=0.1, n_steps=20)
    big = BlockedNoise(particle_streams(9, 5), d=1, dt=0.1, n_steps=20)
    ps, pb = small.initial_positions(), big.initial_positions()
    assert np.array_equal(ps, pb[:2])
    for _ in range(20):
        ws, wb = small.next_step(), big.next_step()
        assert np.array_equal(ws, wb[:2])


def test_replicate_seed_wraps_at_u64():
    assert replicate_seed(2**64 - 1, 2) == 1
    assert replicate_seed(10, 3) == 13
