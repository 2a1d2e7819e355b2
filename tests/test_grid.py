"""Sweep-grid expansion tests."""

import pytest

from repro.experiments.grid import (SCHEME_PRESETS, SweepSpec, known_schemes,
                                    scheme_config)
from repro.pipeline.config import CoreConfig


def test_expansion_count_default_optimisations():
    spec = SweepSpec(schemes=("isrb", "refcount_checkpoint"),
                     workloads=("spill_reload", "move_chain"), max_ops=5_000)
    jobs = spec.expand()
    # Per workload: 1 baseline + 2 scheme variants.
    assert len(jobs) == 6
    assert spec.job_count() == 6
    assert spec.trace_count() == 2
    baselines = [job for job in jobs if job.is_baseline]
    assert len(baselines) == 2
    assert all(job.max_ops == 5_000 and job.seed == 1 for job in jobs)


def test_expansion_with_ablation_axes_skips_the_double_off_cell():
    spec = SweepSpec(schemes=("isrb",), workloads=("move_chain",),
                     move_elim=(False, True), smb=(False, True))
    # (me, smb) in {(F,T), (T,F), (T,T)} -- (F,F) is the baseline itself.
    assert len(spec.variant_configs()) == 3
    assert spec.job_count() == 4


def test_sizing_override_expands_per_entry_point():
    spec = SweepSpec(schemes=("isrb",), workloads=("move_chain",),
                     entries=(8, 16, 32))
    variants = spec.variant_configs()
    assert len(variants) == 3
    assert sorted(config.tracker.entries for config in variants) == [8, 16, 32]


def test_sizing_override_is_pinned_for_unlimited_schemes():
    # refcount ignores capacity, so an entries sweep must not fabricate
    # distinctly named but identical variants.
    spec = SweepSpec(schemes=("refcount",), workloads=("move_chain",),
                     entries=(8, 16, 32))
    assert len(spec.variant_configs()) == 1
    # ...but its counter width is functional and does sweep.
    spec = SweepSpec(schemes=("refcount",), workloads=("move_chain",),
                     counter_bits=(1, 3))
    assert len(spec.variant_configs()) == 2


def test_job_ids_are_unique_and_filesystem_safe():
    spec = SweepSpec(schemes=("isrb", "refcount"),
                     workloads=("spill_reload", "move_chain"))
    jobs = spec.expand()
    ids = [job.job_id for job in jobs]
    assert len(set(ids)) == len(ids)
    for job_id in ids:
        assert "/" not in job_id and " " not in job_id


def test_unknown_scheme_and_workload_are_rejected():
    with pytest.raises(ValueError, match="unknown scheme"):
        SweepSpec(schemes=("isrb", "nope"))
    with pytest.raises(ValueError, match="unknown workload"):
        SweepSpec(workloads=("definitely_not_a_workload",))
    with pytest.raises(ValueError):
        SweepSpec(schemes=())


def test_empty_workloads_means_default_suite():
    spec = SweepSpec(schemes=("isrb",))
    assert len(spec.resolved_workloads()) >= 10


def test_presets_cover_every_make_tracker_scheme():
    assert set(known_schemes()) == set(SCHEME_PRESETS)
    assert "refcount_checkpoint" in SCHEME_PRESETS


def test_scheme_config_is_the_machine_a_sweep_runs():
    """One decision per scheme name: a spec's variant is scheme_config's."""
    for name in known_schemes():
        spec = SweepSpec(schemes=(name,), workloads=("move_chain",))
        assert spec.variant_configs() == [scheme_config(name)]
    assert scheme_config("baseline") == CoreConfig()
    small = CoreConfig().replace(num_int_pregs=96, num_fp_pregs=96)
    assert scheme_config("baseline", small) == small
    plain = scheme_config("isrb", move_elim=False, smb=False)
    assert not plain.move_elimination.enabled and not plain.smb.enabled
    # Sizing overrides reach only the structures that use them; None is
    # "unlimited", not "preset".
    assert scheme_config("isrb", entries=8).tracker.entries == 8
    assert scheme_config("isrb", entries=None).tracker.entries is None
    assert scheme_config("matrix", entries=8) == scheme_config("matrix")
    assert scheme_config("rda", counter_bits=1) == scheme_config("rda")
    assert scheme_config("refcount", counter_bits=1).tracker.counter_bits == 1
