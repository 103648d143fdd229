"""Per-series fixture tests: each checker fires with exact codes/lines."""

from pathlib import Path

import pytest

from repro.checks import run_checks

FIXTURES = Path(__file__).parent / "fixtures" / "checks"


def codes_and_lines(report):
    return [(f.code, f.file, f.line) for f in report.findings]


def codes(report):
    return sorted({f.code for f in report.findings})


# ---------------------------------------------------------------------
# D-series
# ---------------------------------------------------------------------


def test_d_series_fires_on_every_violation():
    report = run_checks(FIXTURES / "d_tree", select="D")
    assert codes_and_lines(report) == [
        ("D101", "sim/clockmod.py", 10),
        ("D102", "sim/clockmod.py", 14),
        ("D103", "sim/clockmod.py", 18),
        ("D103", "sim/clockmod.py", 22),
        ("D104", "sim/clockmod.py", 27),
        ("D104", "sim/clockmod.py", 29),
        ("D105", "sim/clockmod.py", 33),
    ]


def test_d_series_respects_scope_and_sorted_blessing():
    report = run_checks(FIXTURES / "d_tree", select="D")
    # tools/ is outside the determinism scope; the sorted()-wrapped and
    # seeded variants in sim/ are sanctioned.
    assert not any(f.file.startswith("tools/") for f in report.findings)
    flagged_lines = {f.line for f in report.findings}
    assert not flagged_lines & {38, 43, 48}


# ---------------------------------------------------------------------
# C-series
# ---------------------------------------------------------------------


def test_c_series_fires_on_every_violation():
    report = run_checks(FIXTURES / "c_tree", select="C")
    assert codes_and_lines(report) == [
        ("C201", "core/experiment.py", 12),
        ("C202", "core/experiment.py", 13),
        ("C205", "core/experiment.py", 16),
        ("C203", "exec/job.py", 10),
        ("C203", "exec/job.py", 12),
        ("C204", "scenario/spec.py", 12),
    ]


def test_c_series_messages_name_the_field():
    report = run_checks(FIXTURES / "c_tree", select="C")
    by_code = {f.code: f.message for f in report.findings}
    assert "knobs" in by_code["C201"]
    assert "note" in by_code["C202"]
    assert "gamma" in by_code["C205"]
    assert "axes" in by_code["C204"]


def test_c_series_allows_guarded_known_field_drop():
    report = run_checks(FIXTURES / "c_tree", select="C")
    # The guarded pop of the known field 'knobs' must not fire.
    assert not any("knobs" in f.message for f in report.findings if f.code == "C203")


# ---------------------------------------------------------------------
# T-series
# ---------------------------------------------------------------------


def test_t_series_fires_on_every_violation():
    report = run_checks(FIXTURES / "t_tree", select="T")
    assert codes_and_lines(report) == [
        ("T301", "sim/engine.py", 13),
        ("T305", "sim/engine.py", 57),
        ("T302", "sim/rates.py", 15),
        ("T303", "sim/rates.py", 25),
        ("T304", "sim/rates.py", 33),
    ]


def test_t_series_dispatch_details():
    report = run_checks(FIXTURES / "t_tree", select="T")
    t301 = [f for f in report.findings if f.code == "T301"]
    # Only the leaky chain fires; the complete chain and the
    # catch-all chain are both fine.
    assert len(t301) == 1
    assert "PERTURB_BEGIN" in t301[0].message
    t305 = [f for f in report.findings if f.code == "T305"]
    assert "wattage" in t305[0].message


def test_t301_covers_the_exact_tiers_flattened_loop(tmp_path):
    """The exact tier's inlined event dispatch is a checked chain.

    The real engine is clean; dropping one branch from the flattened
    loop must surface as a T301 finding naming that loop.
    """
    import repro

    src = Path(repro.__file__).parent / "sim"
    sim = tmp_path / "sim"
    sim.mkdir()
    (sim / "events.py").write_text((src / "events.py").read_text())
    engine = (src / "engine.py").read_text()
    (sim / "engine.py").write_text(engine)
    assert not run_checks(tmp_path, select="T").findings
    branch = (
        "                elif kind is _PERTURB_END:\n"
        "                    apply_perturb(payload, False)\n"
    )
    assert engine.count(branch) == 1
    (sim / "engine.py").write_text(engine.replace(branch, ""))
    t301 = [
        f for f in run_checks(tmp_path, select="T").findings if f.code == "T301"
    ]
    assert len(t301) == 1
    assert "_run_loop()" in t301[0].message
    assert "PERTURB_END" in t301[0].message


# ---------------------------------------------------------------------
# L-series
# ---------------------------------------------------------------------


def test_l_series_fires_on_unlocked_accesses():
    report = run_checks(FIXTURES / "l_tree", select="L")
    assert codes_and_lines(report) == [
        ("L401", "fleet/state.py", 24),
        ("L402", "fleet/state.py", 27),
    ]


def test_l_series_exempts_init_locked_suffix_and_unguarded():
    report = run_checks(FIXTURES / "l_tree", select="L")
    flagged = {(f.line) for f in report.findings}
    # __init__ writes, the _locked-suffix helper, and the never-guarded
    # attribute are all clean.
    assert flagged == {24, 27}
    assert not any("label" in f.message for f in report.findings)


# ---------------------------------------------------------------------
# W-series
# ---------------------------------------------------------------------


def test_w_series_fires_on_every_violation():
    report = run_checks(FIXTURES / "w_tree", select="W")
    assert codes(report) == ["W501", "W502", "W503", "W504", "W505"]
    by_code = {f.code: f for f in report.findings}
    assert "/nosuch" in by_code["W501"].message
    assert "/unused" in by_code["W502"].message
    assert "typo_field" in by_code["W503"].message
    assert "phantom" in by_code["W504"].message
    assert "mystery" in by_code["W505"].message


def test_w_series_matched_vocabulary_is_clean():
    report = run_checks(FIXTURES / "w_tree", select="W")
    # worker/error/state and /lease, /result, /status all match; only
    # the five intentional mismatches fire.
    assert len(report.findings) == 5


# ---------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------


def test_series_selection_filters_checkers():
    report = run_checks(FIXTURES / "d_tree", select="W")
    assert report.findings == []
    both = run_checks(FIXTURES / "d_tree", select="D,W")
    assert codes(both) == ["D101", "D102", "D103", "D104", "D105"]


def test_unknown_series_is_refused():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_checks(FIXTURES / "d_tree", select="Z")
