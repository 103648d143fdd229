"""The tiered-accuracy surface: config knobs, env overrides, CLI --set.

Engine *numerics* per tier are pinned in test_engine_equivalence.py;
this file covers how the tiers are selected and surfaced — the
``SimConfig.engine`` / ``ExperimentConfig.engine_tier`` knobs, the
``$REPRO_SIM_ENGINE`` override, the governor's no-op predicate, the
power evaluator's fast path and the scenario CLI's ``--set`` plumbing.
"""

import pytest

from repro.core.experiment import SIM_ENGINE_ENV, ExperimentConfig
from repro.errors import ConfigurationError
from repro.hw.datapath import Datapath
from repro.hw.dvfs import FrequencyGovernor, PowerLimitPolicy
from repro.hw.power import GpuActivity, GpuPowerCoefficients, PowerEvaluator, gpu_power
from repro.sim.config import SimConfig

CELL = dict(gpu="A100", model="gpt3-xl", batch_size=8)


# ----------------------------------------------------------------------
# SimConfig knobs
# ----------------------------------------------------------------------


def test_sim_config_validates_engine():
    assert SimConfig().engine == "exact"
    assert SimConfig(engine="reference").engine == "reference"
    for retired in ("calendar", "incremental", "batched", "auto"):
        with pytest.raises(ConfigurationError):
            SimConfig(engine=retired)


def test_sim_config_fast_turns_on_every_mechanism():
    fast = SimConfig(power_limit_w=300.0, seed=7).fast()
    assert fast.engine == "fast"
    # Unrelated knobs survive the copy.
    assert fast.power_limit_w == 300.0 and fast.seed == 7


def test_sim_config_ideal_preserves_tier_knobs():
    ideal = SimConfig().fast().ideal()
    assert not ideal.contention_enabled
    assert ideal.engine == "fast"


# ----------------------------------------------------------------------
# ExperimentConfig.engine_tier + environment overrides
# ----------------------------------------------------------------------


def test_engine_tier_validation():
    assert ExperimentConfig(**CELL).engine_tier == "exact"
    assert ExperimentConfig(**CELL, engine_tier="fast").engine_tier == "fast"
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**CELL, engine_tier="warp")


def test_engine_tier_auto_is_rejected_with_known_tiers():
    with pytest.raises(ConfigurationError, match=r"known: exact, fast\)"):
        ExperimentConfig(**CELL, engine_tier="auto")


def test_engine_tier_maps_into_sim_config(monkeypatch):
    monkeypatch.delenv(SIM_ENGINE_ENV, raising=False)
    assert ExperimentConfig(**CELL).sim_config(seed=0).engine == "exact"
    fast = ExperimentConfig(**CELL, engine_tier="fast").sim_config(seed=0)
    assert fast.engine == "fast"


def test_env_engine_override_selects_reference(monkeypatch):
    for value, engine in (
        ("", "exact"),
        ("exact", "exact"),
        ("reference", "reference"),
        (" Reference ", "reference"),
    ):
        monkeypatch.setenv(SIM_ENGINE_ENV, value)
        assert ExperimentConfig(**CELL).sim_config(seed=0).engine == engine


@pytest.mark.parametrize("value", ["refrence", "fast", "auto", "1"])
def test_env_engine_override_rejects_unknown_values(monkeypatch, value):
    """A typo must not silently run the default engine (that would make
    a reference-engine check compare the default engine to itself)."""
    monkeypatch.setenv(SIM_ENGINE_ENV, value)
    with pytest.raises(ConfigurationError, match=SIM_ENGINE_ENV):
        ExperimentConfig(**CELL).sim_config(seed=0)


def test_reference_env_refuses_fast_tier_cells(monkeypatch):
    """engine_tier='fast' hashes into the cache key; the env toggle
    does not — honoring both would cache oracle numbers under
    fast-tier keys, so the combination is rejected."""
    monkeypatch.setenv(SIM_ENGINE_ENV, "reference")
    cell = ExperimentConfig(**CELL, engine_tier="fast")
    with pytest.raises(ConfigurationError):
        cell.sim_config(seed=0)


def test_engine_tier_changes_cache_key_and_describe():
    from repro.exec.job import SimJob

    exact = SimJob(config=ExperimentConfig(**CELL))
    fast = SimJob(config=ExperimentConfig(**CELL, engine_tier="fast"))
    assert exact.cache_key() != fast.cache_key()
    assert "[fast]" in fast.config.describe()
    assert "[" not in exact.config.describe()


def test_default_engine_tier_leaves_cache_keys_unchanged():
    """Exact-tier payloads omit the field: pre-PR cache keys survive."""
    from repro.exec.job import SimJob

    exact = SimJob(config=ExperimentConfig(**CELL))
    assert "engine_tier" not in exact.payload()["config"]
    fast = SimJob(config=ExperimentConfig(**CELL, engine_tier="fast"))
    assert fast.payload()["config"]["engine_tier"] == "fast"


# ----------------------------------------------------------------------
# governor no-op predicate
# ----------------------------------------------------------------------


def test_would_noop_requires_pinned_clock_and_sub_limit_power():
    policy = PowerLimitPolicy(limit_w=300.0)
    governor = FrequencyGovernor(policy)
    # Fresh governor at max clock, sample under the limit: no-op.
    assert governor.would_noop(250.0)
    # Over-limit sample must tick.
    assert not governor.would_noop(350.0)
    # Throttled clock must tick (it wants to ramp back up).
    governor.observe(500.0)
    assert governor.clock_frac < 1.0
    assert not governor.would_noop(250.0)
    # Predicate honesty: whenever it says no-op, observe() must not
    # move the clock.
    governor.reset()
    for power in (0.0, 120.0, 299.9, 300.0):
        if governor.would_noop(power):
            before = governor.clock_frac
            assert governor.observe(power) == before


def test_would_noop_false_while_ewma_above_limit():
    policy = PowerLimitPolicy(limit_w=300.0)
    governor = FrequencyGovernor(policy)
    # Drive the EWMA over the limit without moving the clock: the
    # moving average still needs draining ticks.
    governor._ewma_w = 400.0
    governor._primed = True
    assert not governor.would_noop(250.0)


# ----------------------------------------------------------------------
# power evaluator fast path
# ----------------------------------------------------------------------


def test_evaluate_parts_matches_gpu_power():
    coeffs = GpuPowerCoefficients()
    evaluator = PowerEvaluator(400.0, coeffs)
    cases = [
        GpuActivity(),
        GpuActivity(
            sm_util={Datapath.TENSOR: 0.9, Datapath.VECTOR: 0.4},
            hbm_frac=0.7,
            link_frac=0.3,
            clock_frac=0.8,
        ),
        # Out-of-range values exercise the clamps.
        GpuActivity(
            sm_util={Datapath.VECTOR: 1.7}, hbm_frac=1.4, link_frac=-0.1,
            clock_frac=1.0,
        ),
    ]
    for activity in cases:
        expected = gpu_power(400.0, coeffs, activity)
        assert evaluator.evaluate(activity) == expected
        assert (
            evaluator.evaluate_parts(
                activity.clock_frac,
                activity.hbm_frac,
                activity.link_frac,
                tuple(activity.sm_util.items()),
            )
            == expected
        )
    assert evaluator.idle_power() == gpu_power(
        400.0, coeffs, GpuActivity()
    )


# ----------------------------------------------------------------------
# scenario --set plumbing
# ----------------------------------------------------------------------


def test_parse_set_overrides_types():
    from repro.scenario.runner import parse_set_overrides

    overrides = parse_set_overrides(
        ["gpu=H100", "batch_size=16", "jitter_sigma=0.5",
         "engine_tier=fast", "power_limit_w=null"]
    )
    assert overrides == {
        "gpu": "H100",
        "batch_size": 16,
        "jitter_sigma": 0.5,
        "engine_tier": "fast",
        "power_limit_w": None,
    }
    with pytest.raises(ConfigurationError):
        parse_set_overrides(["no-equals-sign"])


def test_with_base_overrides_applies_to_every_cell():
    from repro.scenario.spec import SweepSpec

    spec = SweepSpec(
        name="t",
        base={"gpu": "A100"},
        axes={"batch_size": [8, 16]},
    )
    overridden = spec.with_base_overrides({"engine_tier": "fast"})
    jobs = overridden.compile()
    assert len(jobs) == 2
    assert all(job.config.engine_tier == "fast" for job in jobs)
    assert spec.spec_hash() != overridden.spec_hash()
    # Unknown fields and axis-swept fields are rejected loudly.
    with pytest.raises(ConfigurationError):
        spec.with_base_overrides({"warp_factor": 9})
    with pytest.raises(ConfigurationError):
        spec.with_base_overrides({"batch_size": 4})


def test_scenario_run_with_overrides_uses_qualified_manifest(tmp_path):
    from repro.exec.service import configure
    from repro.scenario.runner import run_scenario

    configure(cache=True, cache_dir=str(tmp_path), executor=None)
    try:
        report = run_scenario(
            "fig9", overrides={"engine_tier": "fast", "runs": 1}
        )
        assert report.name.startswith("fig9@")
        assert report.cells > 0
        assert report.manifest is not None
        assert report.manifest.spec_hash == report.spec.spec_hash()
        assert all(
            job.config.engine_tier == "fast"
            for job in report.spec.compile()
        )
        # Canonical fig9 manifest untouched; the overridden run's
        # manifest lands under its hash-qualified (sanitized) name.
        assert not (tmp_path / "manifests" / "fig9.json").exists()
        assert report.manifest_file is not None
        assert report.manifest_file.exists()
        assert report.manifest_file.name != "fig9.json"
    finally:
        configure(cache=True, cache_dir=None, executor=None)


def test_cli_scenario_show_set(capsys):
    from repro.cli import main

    assert main(
        ["scenario", "show", "fig9", "--set", "engine_tier=fast"]
    ) == 0
    out = capsys.readouterr().out
    assert '"engine_tier": "fast"' in out
    assert "[fast]" in out


def test_cli_scenario_show_set_on_specless_artifact_errors(capsys):
    """show must mirror run: no silent preview without the override."""
    from repro.cli import main

    assert main(
        ["scenario", "show", "fig8", "--set", "engine_tier=fast"]
    ) == 1
    err = capsys.readouterr().err
    assert "no sweep spec" in err and "--set" in err
