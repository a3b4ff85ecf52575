"""Suite dataset construction with on-disk caching.

The paper-regime dataset takes a minute or two of simulation; it is
stored in the content-addressed artifact cache
(:mod:`repro.parallel.cache`) keyed by the generating parameters plus
every code-relevant fingerprint, so experiments, benchmarks and CLI
sessions share one copy and any code change invalidates stale ones.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import __version__
from repro.datasets.dataset import Dataset
from repro.experiments.config import ExperimentConfig, default_cache_dir
from repro.parallel import ArtifactCache
from repro.workloads.suite import simulate_suite, workload_fingerprint

#: In-process cache so repeated experiment calls share one dataset object.
_MEMORY_CACHE: dict = {}


def _machine_fingerprint() -> str:
    """Digest of the simulator's default physics (cache invalidation).

    Any change to the machine geometry, latencies or overlap constants
    changes the CPI a simulation would produce, so it must invalidate
    cached datasets.  Delegates to the fastsim fingerprint so datasets
    and calibrations can never disagree about what "the machine" is.
    """
    from repro.fastsim.calibration import machine_fingerprint

    return machine_fingerprint()


def experiment_fingerprint(config: ExperimentConfig) -> Tuple:
    """The full identity of the dataset ``config`` produces.

    Combines the config's own cache key with the package version and the
    workload/machine fingerprints: equal tuples guarantee equal datasets,
    and any code change that could alter the simulation changes the tuple.
    """
    return (
        __version__,
        workload_fingerprint(),
        _machine_fingerprint(),
    ) + config.cache_key()


def artifact_cache(cache_dir: Optional[Path] = None) -> ArtifactCache:
    """The artifact cache experiments read and write.

    ``cache_dir`` overrides the root (tests use temporary directories);
    the default lives under :func:`default_cache_dir`.
    """
    if cache_dir is not None:
        return ArtifactCache(Path(cache_dir))
    return ArtifactCache(default_cache_dir() / "artifacts")


def collect_run_key(
    sections_per_workload: int,
    instructions_per_section: int,
    seed: int,
    jitter: float = 0.08,
) -> str:
    """Checkpoint run key for one suite-collection identity.

    Everything that determines a workload unit's result participates —
    the generating parameters plus the code fingerprints — so two runs
    share checkpoints exactly when their units would be bit-identical.
    """
    from repro._util import stable_hash

    return "collect-" + stable_hash([
        __version__,
        workload_fingerprint(),
        _machine_fingerprint(),
        sections_per_workload,
        instructions_per_section,
        seed,
        jitter,
    ])


def suite_dataset(
    config: Optional[ExperimentConfig] = None,
    cache_dir: Optional[Path] = None,
    n_jobs: Optional[int] = None,
    policy=None,
    engine: str = "trace",
    calibration=None,
) -> Dataset:
    """The section dataset for ``config`` (simulating it if needed).

    Simulation fans out across workloads (``n_jobs``; ``None`` defers to
    ``REPRO_JOBS``) and the result is bit-identical at any worker count.
    The disk cache key includes the package version: any code change
    that could alter the simulation invalidates old caches.

    ``policy`` (a :class:`~repro.resilience.RunPolicy`) adds
    per-workload retries, timeouts and checkpoint/resume to the
    simulation leg; a policy without a ``run_key`` is automatically
    scoped to this config's collection identity.

    ``engine="fast"`` predicts the dataset through
    :func:`repro.fastsim.fast_suite` instead of replaying traces.  Fast
    datasets are cached under a key extended with the engine name and
    the calibration artifact's content digest, so they can never collide
    with — or serve in place of — trace datasets, datasets from a
    different calibration, or datasets from a different machine
    configuration.  ``calibration`` supplies the
    :class:`~repro.fastsim.Calibration`; ``None`` loads or fits one
    through the same artifact cache.
    """
    cfg = config or ExperimentConfig.quick()
    if engine not in ("trace", "fast"):
        from repro.errors import ConfigError

        raise ConfigError(f"engine must be 'trace' or 'fast', got {engine!r}")

    cache = artifact_cache(cache_dir) if cfg.use_cache else None
    if engine == "fast":
        from repro.fastsim.calibration import (
            DIFFERENTIAL_CLIP,
            DIFFERENTIAL_SHRINK,
            get_calibration,
        )
        from repro.fastsim.engine import ENGINE_REVISION

        if calibration is None:
            calibration = get_calibration(cache, seed=cfg.seed)
        # The differential shrink/clip are applied at predict time, not
        # baked into the artifact, so they are part of the dataset's
        # identity alongside the calibration content digest and the
        # engine revision.
        key = experiment_fingerprint(cfg) + (
            "engine",
            "fast",
            ENGINE_REVISION,
            calibration.digest,
            DIFFERENTIAL_SHRINK,
            DIFFERENTIAL_CLIP,
        )
    else:
        key = experiment_fingerprint(cfg)
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]

    if cache is not None:
        dataset = cache.load_dataset(key)
        if dataset is not None:
            _MEMORY_CACHE[key] = dataset
            return dataset

    if engine == "fast":
        result = simulate_suite(
            sections_per_workload=cfg.sections_per_workload,
            instructions_per_section=cfg.instructions_per_section,
            seed=cfg.seed,
            jitter=cfg.jitter,
            engine="fast",
            calibration=calibration,
        )
    else:
        if policy is not None and policy.checkpoint is not None and not policy.run_key:
            from dataclasses import replace

            policy = replace(policy, run_key=collect_run_key(
                cfg.sections_per_workload,
                cfg.instructions_per_section,
                cfg.seed,
                cfg.jitter,
            ))
        result = simulate_suite(
            sections_per_workload=cfg.sections_per_workload,
            instructions_per_section=cfg.instructions_per_section,
            seed=cfg.seed,
            jitter=cfg.jitter,
            n_jobs=n_jobs,
            policy=policy,
        )
    dataset = result.dataset
    if result.failures:
        # A partial dataset must never masquerade as the canonical one:
        # neither cache layer may serve it for this fingerprint.
        return dataset
    if cache is not None:
        cache.store_dataset(key, dataset)
    _MEMORY_CACHE[key] = dataset
    return dataset


def workload_mask(dataset: Dataset, workload: str) -> np.ndarray:
    """Boolean row mask selecting one workload's sections."""
    return dataset.meta["workload"] == workload
