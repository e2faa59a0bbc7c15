import itertools
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_grad_pair, random_probe
from ipslearn import models
from ipslearn.models import Box, TruthSchedule, make_model, weight_matrix


# ---------------------------------------------------------------------------
# Pair drift values


def test_linear_drift_value():
    m = make_model("linear")
    b = m.drift_pair(np.array([1.0, 0.2]), np.array([1.0]), np.array([0.0]))
    assert b == pytest.approx([-1.2], abs=0)


def test_kuramoto_drift_vanishes_at_equal_phases():
    m = make_model("kuramoto")
    x = np.array([0.73])
    assert m.drift_pair(np.array([1.5]), x, x) == pytest.approx([0.0], abs=0)


def test_kuramoto_antisymmetry_exact():
    m = make_model("kuramoto")
    rng = np.random.default_rng(0)
    for _ in range(20):
        th = rng.standard_normal(1)
        x, y = rng.standard_normal(1), rng.standard_normal(1)
        assert np.array_equal(
            m.drift_pair(th, x, y), -m.drift_pair(th, y, x)
        )


def test_cucker_smale_drift_value():
    # psi(0.5, 4) = 5^-0.5; velocity drift = -0.2*0 - 1.0*psi*(1-0)
    m = make_model("cucker-smale")
    b = m.drift_pair(
        np.array([0.2, 1.0, 0.5]), np.array([0.0, 1.0]), np.array([2.0, 0.0])
    )
    psi = (1.0 + 4.0) ** -0.5
    assert b[0] == pytest.approx(1.0, abs=0)
    assert b[1] == pytest.approx(-psi, rel=1e-12)


def test_cucker_smale_exponent_gradient():
    # chain rule on (1+u)^-t3: d/dt3 of the velocity drift is
    # +t2*log(1+u)*(1+u)^-t3*(v_i - v_j); checked against the FD oracle
    m = make_model("cucker-smale")
    th = np.array([0.2, 1.0, 0.5])
    x, y = np.array([0.0, 1.0]), np.array([2.0, 0.0])
    expected = np.log(5.0) * 5.0**-0.5  # = 0.71976176...
    g = m.grad_pair(th, x, y)
    assert g[2, 1] == pytest.approx(expected, rel=1e-12)
    fd = fd_grad_pair(m, th, x, y)
    assert g[2, 1] == pytest.approx(fd[2, 1], rel=1e-6)


# forced worker counts of the Cucker-Smale kernel, so that a 1-CPU machine
# still runs the split; 8 is more workers than chunks at small sizes
WORKER_COUNTS = (1, 2, 3, 8)


def _full_pair_drift(model, theta, positions):
    """Oracle: the Cucker-Smale ensemble drift over whole (..., N, N) pair arrays."""
    q, v = positions[..., 0], positions[..., 1]
    u = (q[..., :, None] - q[..., None, :]) ** 2
    psi = model._psi(theta[2], u)
    inter = (psi * (v[..., :, None] - v[..., None, :])).mean(axis=-1)
    b2 = -theta[0] * q - theta[1] * inter
    return np.stack([v, b2], axis=-1)


def _cs_positions(case, lead, n, seed):
    pos = np.random.default_rng(seed).standard_normal(lead + (n, 2))
    if case == "zeros":
        # every coordinate a signed zero, so every pair term is one too: the
        # output must still match the full evaluation's sign bits
        pos = np.where(pos < 0, -0.0, 0.0)
    elif case == "far":
        # |q| near 1e6, where the differences round, and equal velocities
        pos[..., 0] += 1e6
        pos[..., ::2, 1] = pos[..., :1, 1]
    pos[..., n // 2, :] = pos[..., 0, :]  # coincident particles
    return pos


@pytest.mark.parametrize("lead", [(), (1,), (3,)])
@pytest.mark.parametrize("n", [1, 2, 50, 64, 65, 66, 131, 500, 1200])
def test_cucker_smale_row_blocks_match_full_pairs_bitwise(lead, n, monkeypatch):
    # one chunk, several replicates per chunk, row blocks with a ragged last
    # block (N = 500 and 1200), and more workers than chunks: the same bits as
    # the full evaluation at every worker count, whatever the CPU count
    m = make_model("cucker-smale")
    for case in ("gauss", "zeros", "far"):
        pos = _cs_positions(case, lead, n, seed=n)
        for t3 in (0.0, 0.5, 1.7):
            th = np.array([0.4, 1.3, t3])
            want = _full_pair_drift(m, th, pos)
            for workers in WORKER_COUNTS:
                monkeypatch.setattr(models, "_WORKERS", workers)
                got = m.drift_ensemble(th, pos)
                assert got.shape == want.shape == lead + (n, 2)
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (case, workers)


def test_cucker_smale_pool_keeps_the_bits_under_fast_thread_switching(monkeypatch):
    # more workers than CPUs, a ragged last row block and a thread switch
    # every microsecond: every chunk index is claimed exactly once, and a lost
    # row of the result would change the bits
    claims = []

    class Claims:  # the kernel's chunk counter, recording each index it hands out
        def __init__(self):
            self._indices = itertools.count()

        def __next__(self):
            c = next(self._indices)
            claims.append(c)
            return c

    monkeypatch.setattr(models, "itertools", SimpleNamespace(count=Claims))
    m, n = make_model("cucker-smale"), 999
    th = np.array([0.4, 1.3, 0.5])
    for workers in (2, 3, 8):
        rows = models.PAIR_BLOCK_BYTES // 8 // workers // n
        assert n % rows, "the last row block should be ragged"
        monkeypatch.setattr(models, "_WORKERS", workers)
        # a fresh draw per worker count, so that a lost row cannot hold a
        # stale copy of the right bits from an earlier call
        pos = np.random.default_rng(workers).standard_normal((2, n, 2))
        claims.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = m.drift_ensemble(th, pos)
        finally:
            sys.setswitchinterval(interval)
        # each worker also draws one index past the last chunk, and stops
        assert sorted(claims) == list(range(2 * -(-n // rows) + workers)), workers
        assert got.tobytes() == _full_pair_drift(m, th, pos).tobytes(), workers


def test_cucker_smale_ragged_replicate_chunk_matches_full_pairs_bitwise(monkeypatch):
    # a chunk holds `reps` whole replicates, so R = 2 reps + 1 ends on a chunk of 1
    m, n = make_model("cucker-smale"), 20
    th = np.array([0.4, 1.3, 1.7])
    for workers in WORKER_COUNTS:
        monkeypatch.setattr(models, "_WORKERS", workers)
        reps = models.PAIR_BLOCK_BYTES // 8 // workers // n**2
        assert reps >= 2
        pos = np.random.default_rng(5).standard_normal((2 * reps + 1, n, 2))
        assert m.drift_ensemble(th, pos).tobytes() == _full_pair_drift(m, th, pos).tobytes()


@pytest.mark.parametrize("r,n", [(2, 2000), (400, 50)])
def test_cucker_smale_drift_memory_is_bounded(r, n, monkeypatch):
    # a single full (R, N, N) temporary is 64 MB at R = 2, N = 2000 (row
    # blocks) and 8 MB at R = 400, N = 50 (chunks of whole replicates); the
    # workers split one budget, so the bound holds at every worker count
    m = make_model("cucker-smale")
    pos = np.random.default_rng(0).standard_normal((r, n, 2))
    for workers in (1, 2, 8):
        monkeypatch.setattr(models, "_WORKERS", workers)
        tracemalloc.start()
        try:
            m.drift_ensemble(np.array([0.4, 1.3, 0.5]), pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, workers


def test_cucker_smale_workers_stay_within_one_budget_when_rows_are_long(monkeypatch):
    # at N = 8000 one row of pair terms is 64 KB: under a 256 KiB budget eight
    # workers of one row each would hold twice the budget, so only the four
    # whose rows fit run
    monkeypatch.setattr(models, "PAIR_BLOCK_BYTES", 256 * 1024)
    m = make_model("cucker-smale")
    pos = np.random.default_rng(0).standard_normal((1, 8000, 2))
    th = np.array([0.4, 1.3, 0.5])
    peaks = {}
    for workers in (1, 8):
        monkeypatch.setattr(models, "_WORKERS", workers)
        m.drift_ensemble(th, pos)  # any pool thread starts outside the traced call
        tracemalloc.start()
        try:
            m.drift_ensemble(th, pos)
            peaks[workers] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] < peaks[1] + models.PAIR_BLOCK_BYTES


def test_cucker_smale_bundled_size_runs_as_one_inline_share(monkeypatch):
    # R = 10, N = 50 (the bundled Cucker-Smale configs) fits one chunk, so
    # the call runs on the calling thread and starts no pool thread
    monkeypatch.setattr(models, "_WORKERS", 2)
    shares, run = [], models._POOL.run

    def recording_run(work, worker_shares):
        shares.append(len(worker_shares))
        return run(work, worker_shares)

    monkeypatch.setattr(models._POOL, "run", recording_run)
    m = make_model("cucker-smale")
    pos = np.random.default_rng(0).standard_normal((10, 50, 2))
    th = np.array([0.4, 1.3, 0.5])
    assert m.drift_ensemble(th, pos).tobytes() == _full_pair_drift(m, th, pos).tobytes()
    assert shares == [1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_cucker_smale_scratch_buffers_start_on_cache_lines(workers, monkeypatch):
    # the bits do not depend on where a buffer starts, but a buffer off a
    # 64-byte line makes each AVX-512 load straddle two lines; every
    # buffer must start on one whatever malloc returns and whatever its size
    monkeypatch.setattr(models, "_WORKERS", workers)
    starts, run = [], models._POOL.run

    def recording_run(work, worker_shares):
        cells = dict(zip(work.__code__.co_freevars, work.__closure__))
        starts.extend(buf.ctypes.data % 64 for buf in cells["scratch"].cell_contents)
        return run(work, worker_shares)

    monkeypatch.setattr(models._POOL, "run", recording_run)
    m, th = make_model("cucker-smale"), np.array([0.4, 1.3, 0.5])
    rng = np.random.default_rng(3)
    for reps, n in [(10, 50), (4, 500), (3, 999), (1, 7)]:
        pos = rng.standard_normal((reps, n, 2))
        assert m.drift_ensemble(th, pos).tobytes() == _full_pair_drift(m, th, pos).tobytes()
    assert len(starts) >= 8 and set(starts) == {0}


@pytest.mark.parametrize("workers", [1, 2])
def test_cucker_smale_pool_share_raises_under_the_callers_errstate(workers, monkeypatch):
    # a row sum overflows only in the first row of the second chunk, which
    # either thread may claim when there are 2 workers; it raises as the
    # serial path does, does not hang the call, and the next call still
    # returns the bits.  A share that raises on a pool thread raises there
    # under the caller's errstate.
    monkeypatch.setattr(models, "_WORKERS", workers)
    m, n = make_model("cucker-smale"), 500
    th = np.array([0.4, 1.3, 0.0])
    pos = np.zeros((1, n, 2))
    pos[0, models.PAIR_BLOCK_BYTES // 8 // 2 // n, 1] = 1e308
    raised = []

    def call():
        with np.errstate(over="raise"):
            try:
                m.drift_ensemble(th, pos)
            except FloatingPointError as err:
                raised.append(err)

    caller = threading.Thread(target=call, daemon=True)  # a hung call fails the test, not exit
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert len(raised) == 1
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        models._POOL.run(lambda share: np.float64(1e308) * share, [1, 2])
    pos = np.random.default_rng(1).standard_normal((1, n, 2))
    assert m.drift_ensemble(th, pos).tobytes() == _full_pair_drift(m, th, pos).tobytes()


def test_gradients_match_finite_differences(zoo_model):
    rng = np.random.default_rng(42)
    for _ in range(20):
        theta, x, y = random_probe(zoo_model, rng)
        g = zoo_model.grad_pair(theta, x, y)
        fd = fd_grad_pair(zoo_model, theta, x, y)
        assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))


def test_linear_grad_is_theta_free():
    m = make_model("linear")
    x, y = np.array([0.4]), np.array([-1.1])
    g1 = m.grad_pair(np.array([1.0, 0.2]), x, y)
    g2 = m.grad_pair(np.array([-3.0, 7.0]), x, y)
    assert np.array_equal(g1, g2)
    assert g1 == pytest.approx(np.array([[-0.4], [-(0.4 + 1.1)]]))


# ---------------------------------------------------------------------------
# Empirical-measure forms


def test_drift_mean_linear_closed_form():
    m = make_model("linear")
    rng = np.random.default_rng(1)
    pos = rng.standard_normal((8, 1))
    th = np.array([1.0, 0.2])
    xbar = pos.mean()
    want = -1.0 * pos[2] - 0.2 * (pos[2] - xbar)
    assert m.drift_mean(th, pos[2], pos) == pytest.approx(want, rel=1e-14)


def test_drift_mean_single_particle_reduces_to_pair():
    for m in (make_model("linear"), make_model("kuramoto"), make_model("vol32", eta=0.7)):
        rng = np.random.default_rng(3)
        pos = rng.standard_normal((1, m.d))
        th = rng.standard_normal(m.p)
        assert m.drift_mean(th, pos[0], pos) == pytest.approx(
            m.drift_pair(th, pos[0], pos[0]), rel=1e-14
        )


def test_drift_and_grad_mean_match_bruteforce(zoo_model):
    rng = np.random.default_rng(7)
    pos = rng.standard_normal((7, zoo_model.d))
    th = rng.standard_normal(zoo_model.p)
    brute_b = np.mean([zoo_model.drift_pair(th, pos[3], pos[j]) for j in range(7)], axis=0)
    brute_g = np.mean([zoo_model.grad_pair(th, pos[3], pos[j]) for j in range(7)], axis=0)
    assert zoo_model.drift_mean(th, pos[3], pos) == pytest.approx(brute_b, abs=1e-14)
    assert zoo_model.grad_mean(th, pos[3], pos) == pytest.approx(brute_g, abs=1e-14)
    brute_all = np.stack(
        [np.mean([zoo_model.drift_pair(th, pos[i], pos[j]) for j in range(7)], axis=0)
         for i in range(7)]
    )
    assert zoo_model.drift_ensemble(th, pos) == pytest.approx(brute_all, abs=1e-14)


def test_shared_mean_field_statistic_is_bitwise_neutral(zoo_model):
    # evaluators given the precomputed statistic return the same bytes as
    # those computing it themselves, batched over replicates
    rng = np.random.default_rng(13)
    pos = rng.standard_normal((4, 9, zoo_model.d))
    th = rng.standard_normal((4, zoo_model.p))
    stat = zoo_model.mean_field(pos)
    x = pos[:, 2, :]
    for fn in (zoo_model.drift_mean, zoo_model.grad_mean):
        assert fn(th, x, pos, stat).tobytes() == fn(th, x, pos).tobytes()
    ens = zoo_model.drift_ensemble(th[0], pos, stat)
    assert ens.tobytes() == zoo_model.drift_ensemble(th[0], pos).tobytes()


def test_mean_field_statistics():
    pos = np.array([[[0.0], [1.0], [2.0]]])
    assert make_model("linear").mean_field(pos).tolist() == [[1.0]]
    cbar, sbar, cos, sin = make_model("kuramoto").mean_field(pos)
    assert cos.tobytes() == np.cos(pos).tobytes() and sin.tobytes() == np.sin(pos).tobytes()
    assert cbar[0, 0] == pytest.approx(np.cos([0.0, 1.0, 2.0]).mean())
    assert sbar[0, 0] == pytest.approx(np.sin([0.0, 1.0, 2.0]).mean())
    fhn = np.array([[1.0, 5.0], [3.0, 7.0]])
    assert make_model("fitzhugh-nagumo").mean_field(fhn).tolist() == [2.0]
    assert make_model("cucker-smale").mean_field(fhn) is None


def test_drift_mean_permutation_invariant(zoo_model):
    rng = np.random.default_rng(11)
    pos = rng.standard_normal((6, zoo_model.d))
    th = rng.standard_normal(zoo_model.p)
    base = zoo_model.drift_mean(th, pos[0], pos)
    perm = np.concatenate([pos[:1], pos[1:][::-1]])
    assert zoo_model.drift_mean(th, perm[0], perm) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# Weighting and diffusion


def test_identity_weighting_never_inverts():
    # degenerate sigma blocks would make the inverse blow up; identity
    # weighting must not touch them
    for m in (make_model("fitzhugh-nagumo"), make_model("cucker-smale"),
              make_model("vol32", eta=0.7)):
        assert m.weighting == "identity"
        assert np.array_equal(weight_matrix(m), np.eye(m.d))


def test_inverse_weighting_value():
    m = make_model("linear", sigma=2.0)
    assert weight_matrix(m) == pytest.approx(np.array([[0.25]]))


def test_constant_diffusion_returned():
    m = make_model("linear", sigma=1.0)
    assert m.diffusion.sigma == pytest.approx(np.eye(1))


INV_SQ = 1.0 / (0.7 * 0.7)


@pytest.mark.parametrize("model_id, sigma, weight", [
    ("linear", [[0.7]], [[INV_SQ]]),
    ("double-well", [[0.7]], [[INV_SQ]]),
    ("kuramoto", [[0.7]], [[INV_SQ]]),
    ("fitzhugh-nagumo", [[0.7, 0.0], [0.0, 0.0]], np.eye(2)),
    ("cucker-smale", [[0.0, 0.0], [0.0, 0.7]], np.eye(2)),
])
def test_constant_sigma_constructor(model_id, sigma, weight):
    # sigma sits on the noisy coordinates only; the weighting inverts the
    # full-noise models and is the identity for the degenerate ones
    m = make_model(model_id, sigma=0.7)
    assert np.array_equal(m.diffusion.sigma, sigma)
    assert np.array_equal(weight_matrix(m), weight)


def test_vol32_diffusion_values():
    m = make_model("vol32", eta=0.7)
    # the simulation's noise uses the model's own eta ...
    dw = m.diffusion.apply(np.array([[-2.0]]), np.array([[0.5]]))
    assert dw == pytest.approx(np.array([[0.7 * 2.0**1.5 * 0.5]]), rel=1e-12)
    # ... the estimator's variance terms the estimate they are given
    eta = np.array([0.3])
    sig_sq = m.diffusion.sigma_sq(eta, np.array([-2.0]))
    assert sig_sq == pytest.approx([0.09 * 2.0**3], rel=1e-12)
    dsig1 = m.diffusion.d_eta_sigma_sq(eta, np.array([1.0]))
    assert dsig1 == pytest.approx([0.6], rel=1e-12)


def test_the_true_eta_is_a_constructor_argument():
    # a model with diffusion parameters cannot be built without its eta,
    # and a model without them takes none
    with pytest.raises(TypeError):
        make_model("vol32")
    with pytest.raises(TypeError):
        make_model("linear", eta=0.7)
    assert make_model("vol32", eta=0.7).diffusion.eta == 0.7


# ---------------------------------------------------------------------------
# Truth schedules, boxes


def test_changepoint_is_right_continuous():
    s = TruthSchedule("changepoint", [1.5], [0.2], switch_time=5000.0)
    assert s.at(4999.9) == pytest.approx([1.5])
    assert s.at(5000.0) == pytest.approx([0.2])


def test_ramp_interpolates_and_clamps():
    s = TruthSchedule("ramp", [1.5], [0.2], horizon=10000.0)
    assert s.at(5000.0) == pytest.approx([0.85])
    assert s.at(20000.0) == pytest.approx([0.2])


def test_constant_ignores_time():
    s = TruthSchedule.constant([1.0, 0.2])
    for t in (0.0, 3.7, 1e6):
        assert s.at(t) == pytest.approx([1.0, 0.2])


def test_box_membership_and_validation():
    b = Box(np.array([0.0, -np.inf]), np.array([1.0, np.inf]))
    assert b.contains(np.array([0.5, 100.0]))
    assert not b.contains(np.array([-0.1, 0.0]))


@settings(max_examples=30, deadline=None)
@given(
    th=st.floats(-3, 3),
    x=st.floats(-5, 5),
    y=st.floats(-5, 5),
)
def test_kuramoto_gradient_property(th, x, y):
    m = make_model("kuramoto")
    theta = np.array([th])
    g = m.grad_pair(theta, np.array([x]), np.array([y]))
    fd = fd_grad_pair(m, theta, np.array([x]), np.array([y]))
    assert np.linalg.norm(g - fd) <= 1e-6 * (1 + np.linalg.norm(g))
