"""Experiment execution and artifact writing for every subcommand that
writes files (`run_experiment`, `run_sweep`, `run_surface`, `run_diagnose`).

A parsed config holds each estimator's complete `EstimatorSetup`, initial
estimates, parameter names and scoring truth included; the runner passes
the setups to the batch as they are and writes the batch's (R, p) arrays
out as CSV columns.
Every CSV gets a JSON metadata sidecar sufficient to re-run it exactly
(config hash, seed ladder, generator name, code version); a successful run
ends with a manifest listing each artifact with its content hash.  Outputs
contain no timestamps or absolute paths, so rerunning a config reproduces
byte-identical files.  A large CSV's rows, a sweep's sizes and the units
of an `estimate` or `simulate` run (its batch and the dump of each
replicate) are shared among forked worker processes (`workers`); no byte
depends on the split, and no artifact records the number of processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, models, workers
from .batch import batch_seeds, n_slices, run_batch
from .config import ConfigError, ExperimentConfig
from .diagnostics import (CLT_MIN_REPLICATES, clt_rescaled_moments, coupling_distance,
                          l2_error_sweep, squared_errors)
from .estimators import validate_schedule
from .objective import surface_scan
from .rng import GENERATOR_NAME, replicate_seed
from .sde import MomentTracker, PositionHistory, SimulationBlowup, run_trajectory
from .workers import FORK as _FORK  # elsewhere every CSV is written inline


# rows formatted per write; larger blocks raise peak memory, not speed.  The
# block also bounds the sort that finds each column's distinct values.
CSV_BLOCK_ROWS = 1024
# A CSV is split over one forked worker per CPU (`models._WORKERS`) only when
# each worker gets at least this many blocks: a fork and wait cost about
# 1.7 ms, formatting one block of floats about 0.6 ms, so a worker's six
# blocks take about twice what its fork costs.  At 2 CPUs a 12 000-row
# estimates CSV (12 blocks) splits; summary and sweep CSVs stay inline.
CSV_MIN_BLOCKS_PER_WORKER = 6
SHA256_CHUNK_BYTES = 1 << 20  # an artifact is hashed in chunks of this size


def _format_column(col):
    """The CSV text of each value of one numpy bool, integer, float or
    string column.

    Each distinct value is formatted once and the texts are mapped back to
    the rows; a column with no repeated value is formatted in row order.
    Floats are told apart by their bit pattern, so -0.0 and 0.0 keep their
    own texts.
    """
    kind = col.dtype.kind
    keys = col.view(f"i{col.itemsize}") if kind == "f" else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    repeats = len(first) < len(col)
    distinct = (col[first] if repeats else col).tolist()
    if kind == "b":
        texts = ["1" if v else "0" for v in distinct]
    else:
        texts = list(map(repr if kind == "f" else str, distinct))
    return [texts[k] for k in inverse.tolist()] if repeats else texts


def write_csv(path: Path, header, columns):
    """Write equal-length numpy `columns` under `header`, one CSV row per index.

    Floats are written as Python's shortest round-trip repr, bools as 1/0
    and integers in decimal.  A large CSV's rows are formatted by several
    processes (`_shares`); the bytes do not depend on the split, since no
    value's text depends on its neighbours.
    """
    n_rows = len(columns[0]) if len(columns) else 0
    if len(columns) != len(header) or any(len(col) != n_rows for col in columns):
        raise ValueError(f"{path.name}: need {len(header)} columns of equal length")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        _write_shares(path, fh, columns, _shares(n_rows))


def _write_rows(fh, columns, start, stop):
    """Write rows start..stop-1 of `columns` to `fh`, CSV_BLOCK_ROWS at a time."""
    for lo in range(start, stop, CSV_BLOCK_ROWS):
        block = [_format_column(col[lo:min(lo + CSV_BLOCK_ROWS, stop)]) for col in columns]
        fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _shares(n_rows):
    """(start, stop) of each worker's rows: one contiguous run of whole
    blocks per CPU, or a single share when a worker would get fewer than
    CSV_MIN_BLOCKS_PER_WORKER blocks."""
    n_blocks = -(-n_rows // CSV_BLOCK_ROWS)
    procs = max(1, min(models._WORKERS, n_blocks // CSV_MIN_BLOCKS_PER_WORKER)) if _FORK else 1
    cuts = [min(n_rows, CSV_BLOCK_ROWS * (n_blocks * k // procs)) for k in range(procs + 1)]
    return list(zip(cuts, cuts[1:]))


def _write_shares(path, fh, columns, shares):
    """Write the first share to `fh` here and each other share in a forked
    child (`workers.run_forked`), then append the children's texts to `fh`
    in share order.

    A child writes to an unnamed temporary file (in TMPDIR) made before the
    fork, in the encoding of `fh`.  It runs numpy and file writes only, so
    the Cucker-Smale pool's idle threads, which it lacks, hold nothing it
    needs.
    """
    with contextlib.ExitStack() as stack:
        tmps = [
            stack.enter_context(tempfile.TemporaryFile("w", encoding=fh.encoding, newline="\n"))
            for _ in shares[1:]
        ]
        codes = workers.run_forked(
            tmps, lambda k, tmp: _write_rows(tmp, columns, *shares[k + 1]),
            lambda: _write_rows(fh, columns, *shares[0]))
        fh.flush()
        for (lo, hi), tmp, code in zip(shares[1:], tmps, codes):
            if code != 0:
                raise RuntimeError(f"{path.name}: the worker formatting rows {lo} to {hi} "
                                   f"exited with code {code}")
            _append(fh.fileno(), tmp.fileno())


def _append(out_fd, in_fd):
    """Copy the whole file `in_fd` to `out_fd` within the kernel, not through
    a Python buffer (which would raise the parent's peak memory)."""
    size, done = os.fstat(in_fd).st_size, 0
    while done < size:
        done += os.sendfile(out_fd, in_fd, done, size - done)


def _write_table(path: Path, header, columns, meta: dict):
    """Write one CSV (`write_csv`) and its `<name>.meta.json` sidecar holding
    `meta`; returns both paths, for the manifest."""
    write_csv(path, header, columns)
    side = path.with_name(path.name + ".meta.json")
    with open(side, "w") as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return [path, side]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(SHA256_CHUNK_BYTES), b""):
            h.update(chunk)
    return h.hexdigest()


def base_metadata(config: ExperimentConfig) -> dict:
    return {
        "config_name": config.name,
        "config_hash": config.content_hash(),
        "model_id": config.model.model_id,
        "dt": config.dt,
        "generator": GENERATOR_NAME,
        "base_seed": config.base_seed,
        "seed_ladder": "replicate r uses base_seed + r; particle i uses stream_id i",
        "truth": config.raw.get("truth"),
        "code_version": __version__,
    }


def run_experiment(config: ExperimentConfig, out_dir, trajectory_only: bool = False) -> dict:
    """Execute a config end to end and return the output manifest.

    Its independent units of work are the batch, with its estimates and
    summary CSVs (unit None; `estimate` only), and, for a trajectory dump,
    the re-simulation and CSV of each replicate r.  When one replicate's
    dump has enough rows for the CSV writer to split it, the units are
    shared among this process and forked workers (`workers.map_claimed`);
    a batch that cuts itself into replicate slices (`batch.n_slices`) first
    runs alone, on every CPU.  Where units fail, the first in that order
    raises, so a batch error comes before any dump error, as inline.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = batch_seeds(config.base_seed, config.replicates)
    meta = base_metadata(config)
    dumped = list(range(config.replicates)) if trajectory_only or config.dump_trajectory else []

    def run_unit(r):
        if r is None:
            return _write_batch(config, seeds, out, meta)
        return _write_trajectory(config, seeds[r], out / f"trajectory_r{r:03d}.csv",
                                 {**meta, "replicate": r, "seed": seeds[r],
                                  "record_every": config.record_every})

    artifacts = []
    batch_unit = [] if trajectory_only else [None]
    if batch_unit and n_slices(config.replicates, config.n_particles, config.n_steps) > 1:
        artifacts += run_unit(None)  # on every CPU already
        batch_unit = []
    units = batch_unit + dumped
    # the CSV writer's own rule: a dump large enough to give a worker
    # CSV_MIN_BLOCKS_PER_WORKER blocks
    rows = len(range(0, config.n_steps, config.record_every)) * config.n_particles * config.model.d
    large = rows >= CSV_MIN_BLOCKS_PER_WORKER * CSV_BLOCK_ROWS
    done = workers.map_claimed(run_unit, units, range(len(units)),
                               lambda r: "the batch" if r is None else f"replicate {r}",
                               fork=bool(dumped) and large)
    if batch_unit:
        artifacts += done.pop(0)
    for written, _ in done:
        artifacts += written
    # a replicate that blows up is dumped up to its blow-up; the run fails
    # only if every one does
    if dumped and all(blew_up for _, blew_up in done):
        raise RuntimeError("every replicate blew up; nothing to report")
    return _finish_manifest(config, out, artifacts)


def _write_batch(config, seeds, out, meta):
    """Run the batch and write its estimates and summary CSVs; returns
    their paths."""
    result = run_batch(
        config.model,
        config.truth,
        config.n_particles,
        config.dt,
        config.n_steps,
        seeds,
        config.estimators,
        record_every=config.record_every,
        tail_fraction=config.tail_fraction,
    )
    if np.all(result.excluded):
        raise RuntimeError("every replicate blew up; nothing to report")
    errors = [squared_errors(track, config.n_steps, config.dt, ~result.excluded)
              for track in result.tracks]
    return (_write_estimates(config, result, out, meta)
            + _write_summary(config, result, errors, out, meta))


def _write_estimates(config, result, out, meta):
    tracks = result.tracks
    names = [track.setup.param_names for track in tracks]
    # rows run over estimators, then recorded steps, then parameters
    step = np.concatenate([np.repeat(tr.record_steps, len(nm)) for tr, nm in zip(tracks, names)])
    time = step * config.dt
    label = np.concatenate([np.full(len(tr.record_steps) * len(nm), tr.setup.label)
                            for tr, nm in zip(tracks, names)])
    param = np.concatenate([np.tile(nm, len(tr.record_steps)) for tr, nm in zip(tracks, names)])
    paths = []
    for r in range(config.replicates):
        value = np.concatenate([tr.theta_path[:, r, :].reshape(-1) for tr in tracks])
        frozen = np.concatenate(
            [np.repeat(tr.frozen_path[:, r], len(nm)) for tr, nm in zip(tracks, names)]
        )
        paths += _write_table(
            out / f"estimates_r{r:03d}.csv",
            ["step", "time", "estimator_id", "param", "value", "frozen"],
            [step, time, label, param, value, frozen],
            {**meta, "replicate": r, "seed": replicate_seed(config.base_seed, r),
             "record_every": config.record_every},
        )
    return paths


def _write_summary(config, result, errors, out, meta):
    ok = ~result.excluded
    blocks = []
    for track, err in zip(result.tracks, errors):
        R, p = track.tail_mean.shape
        pooled = track.tail_mean[ok].mean(axis=0)  # over non-excluded replicates
        blocks.append([
            np.repeat(np.arange(R), p), np.full(R * p, track.setup.label),
            np.tile(track.setup.param_names, R),
            track.final, track.tail_mean, err,
            (track.tail_mean - pooled) ** 2,
            np.repeat(result.excluded, p), np.repeat(result.blowup_step, p),
        ])
    # rows run over estimators, then replicates, then parameters
    columns = [np.concatenate([b[k].reshape(-1) for b in blocks]) for k in range(9)]
    return _write_table(
        out / "summary.csv",
        ["replicate", "estimator_id", "param", "final", "tail_mean",
         "sq_error_truth", "sq_error_pooled", "excluded", "blowup_step"],
        columns,
        {**meta, "tail_fraction": config.tail_fraction, "replicates": config.replicates},
    )


def _write_trajectory(config, seed, path, meta):
    """Write one replicate's recording to `path` (freed on return) and its
    sidecar, `meta` plus any `blowup_step`; returns the two paths and
    whether the replicate blew up."""
    hist = PositionHistory(config.n_steps, config.n_particles, config.model.d,
                           record_every=config.record_every)
    blowup_step = None
    try:
        run_trajectory(config.model, config.truth, config.n_particles, config.dt,
                       config.n_steps, seed, observers=[hist])
    except SimulationBlowup as e:
        blowup_step = e.step
    # rows run over the steps recorded before any blow-up, then particles, then coordinates
    n_rec = np.count_nonzero(hist.steps < (config.n_steps if blowup_step is None else blowup_step))
    _, n, d = hist.positions.shape
    step = np.repeat(hist.steps[:n_rec], n * d)
    particle = np.tile(np.repeat(np.arange(n), d), n_rec)
    coord = np.tile(np.arange(d), n_rec * n)
    if blowup_step is not None:
        meta = {**meta, "blowup_step": blowup_step}
    written = _write_table(path, ["step", "time", "particle", "coord", "value"],
                           [step, step * config.dt, particle, coord,
                            hist.positions[:n_rec].reshape(-1)], meta)
    return written, blowup_step is not None


def run_sweep(config: ExperimentConfig, out_dir) -> dict:
    """Fig-2-style error sweep over the particle counts in config.sweep."""
    if not config.sweep_n_particles:
        raise ConfigError("sweep", "the sweep command needs a sweep.n_particles section")
    if config.replicates < 2:
        raise ConfigError("replicates", "a sweep needs at least 2 replicates for a standard error")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    columns = l2_error_sweep(
        config.model,
        config.truth,
        config.sweep_n_particles,
        config.dt,
        config.n_steps,
        config.replicates,
        config.estimators,
        config.base_seed,
        tail_fraction=config.tail_fraction,
    )
    artifacts = _write_table(
        out / "sweep.csv", ["N", "estimator", "param", "mse", "stderr", "excluded_count"],
        columns,
        {**base_metadata(config), "n_steps": config.n_steps, "replicates": config.replicates,
         "sweep_n_particles": config.sweep_n_particles},
    )
    return _finish_manifest(config, out, artifacts)


def run_surface(config: ExperimentConfig, out_dir) -> dict:
    if not config.surface:
        raise ConfigError("surface", "the surface command needs a surface section")
    if config.truth.kind != "constant":
        raise ConfigError("truth.kind", "surface scans need a constant truth schedule")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    surface = config.surface
    values = surface_scan(
        config.model,
        surface["axes"],
        config.n_particles,
        config.dt,
        surface["horizon_steps"],
        surface["burn_in_steps"],
        surface["scan_kind"],
        config.base_seed,
        config.truth.at(0.0),
    )
    # one row per grid point, the last axis varying fastest
    grid = np.meshgrid(*surface["axes"], indexing="ij")
    header = [f"theta_{k+1}" for k in range(len(grid))] + ["value"]
    artifacts = _write_table(
        out / "surface.csv", header, [g.reshape(-1) for g in grid] + [values.reshape(-1)],
        {**base_metadata(config), "scan_kind": surface["scan_kind"],
         "horizon_steps": surface["horizon_steps"], "burn_in_steps": surface["burn_in_steps"],
         "n_particles": config.n_particles},
    )
    return _finish_manifest(config, out, artifacts)


def run_diagnose(config: ExperimentConfig, out_dir, mode: str, n_small, n_big: int) -> dict:
    """One `diagnose` mode: the moment series of one trajectory (`moments`),
    the coupling distance of each `n_small` system to the `n_big` one
    (`coupling`) or the rescaled-error moments of the first estimator
    (`clt`).  `n_small` and `n_big` are read by `coupling` only."""
    if mode == "clt":
        if config.replicates < CLT_MIN_REPLICATES:
            raise ConfigError("replicates", f"the CLT check needs at least "
                              f"{CLT_MIN_REPLICATES}, got {config.replicates}")
        if not validate_schedule(config.estimators[0].schedule).rate_conditions_ok:
            raise ConfigError("estimators[0].learning_rate",
                              "the CLT check needs a power-law schedule with beta in (1/2, 1)")
    model = config.model
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = base_metadata(config)
    if mode == "moments":
        # a blow-up still writes the series up to it, then fails the run
        tracker = MomentTracker(config.n_steps)
        blowup = None
        try:
            run_trajectory(
                model, config.truth, config.n_particles, config.dt, config.n_steps,
                config.base_seed, observers=[tracker],
            )
        except SimulationBlowup as e:
            blowup = e
        n = tracker.n_filled
        step = np.tile(np.arange(n), len(tracker.orders))
        side = {**meta, "growth_detected": tracker.growth_detected()}
        if blowup is not None:
            side["blowup_step"] = blowup.step
        artifacts = _write_table(out / "moments.csv", ["step", "time", "order", "value"], [
            step, step * config.dt, np.repeat(tracker.orders, n),
            np.concatenate([tracker.series[order][:n] for order in tracker.orders]),
        ], side)
        if blowup is not None:
            raise blowup
    elif mode == "coupling":
        # one (n_steps,) series per n_small, each a block of rows
        series = coupling_distance(
            model, config.truth, n_small, n_big, config.dt, config.n_steps, config.base_seed,
        ).reshape(-1)
        step = np.tile(np.arange(config.n_steps), len(n_small))
        artifacts = _write_table(
            out / "coupling.csv", ["step", "time", "n_small", "n_big", "mean_sq_distance"],
            [step, step * config.dt, np.repeat(n_small, config.n_steps),
             np.full(len(step), n_big), series],
            meta,
        )
    else:  # clt: the first estimator only
        setup = config.estimators[0]
        names, summary = clt_rescaled_moments(
            model, config.truth, config.n_particles, config.dt, config.n_steps,
            config.replicates, setup, config.base_seed,
        )
        artifacts = _write_table(
            out / "clt.csv", ["param", "variance", "skewness", "excess_kurtosis", "replicates"],
            [names, summary.variance, summary.skewness, summary.excess_kurtosis,
             np.full(len(names), summary.replicates)],
            meta,
        )
    return _finish_manifest(config, out, artifacts)


def _finish_manifest(config, out, artifacts):
    manifest = {
        "config_name": config.name,
        "config_hash": config.content_hash(),
        "code_version": __version__,
        "artifacts": [{"name": p.name, "sha256": _sha256(p)} for p in sorted(artifacts)],
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest
