import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpulse import (
    ConfigError,
    ParameterDomainError,
    Regime,
    SampleBudgetError,
    compute_metrics,
    default_initial_state,
    derive_params,
    evolve_ladder,
    integrate_strong,
    rk,
    runner,
)
from superpulse.cli import main
from superpulse.runner import (
    PRESETS,
    TRAJECTORY_HEADER,
    RunConfig,
    load_config,
    parse_config,
    resolve,
    run_config,
    run_preset,
)

# small, fast weak-mode configuration used by most tests here
FAST_CONFIG = {
    "label": "fast",
    "params": {"n_atoms": 500, "omega0": 1e4, "g": 10.0},
    "regime": "weak",
}


def write_config(tmp_path: Path, doc: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_trajectory_csv(path: Path):
    """Load a trajectory CSV back into (t, theta, phi, energy, intensity)."""
    data = np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))
    return tuple(data[:, i] for i in range(5))


def test_presets_cover_all_figures():
    assert sorted(PRESETS) == [f"fig{i}" for i in range(1, 9)]
    assert PRESETS["fig2"].omega0 == 1e5
    assert PRESETS["fig3"].g == 1e3
    assert PRESETS["fig4"].n_atoms == 10**6
    assert PRESETS["fig5"].n_atoms == 10**7
    assert PRESETS["fig6"].g == 0.0
    assert PRESETS["fig8"].omega0 == 1e3


def test_run_config_files_and_header(tmp_path):
    path = write_config(tmp_path, FAST_CONFIG)
    (result,) = run_config(path, out_dir=tmp_path)
    assert result.trajectory_path.exists()
    assert result.metrics_path.exists()
    first = result.trajectory_path.read_text().splitlines()[0]
    assert first == TRAJECTORY_HEADER


def test_metrics_roundtrip_from_csv(tmp_path):
    # metrics recomputed from the written trajectory match the emitted
    # metrics exactly (the CSV stores full precision)
    path = write_config(tmp_path, FAST_CONFIG)
    (result,) = run_config(path, out_dir=tmp_path)
    t, theta, phi, energy, intensity = read_trajectory_csv(result.trajectory_path)
    d = derive_params(load_config(path)[0].params)
    again = compute_metrics(t, intensity, d)
    saved = json.loads(result.metrics_path.read_text())["pulse_metrics"]
    assert again.peak_intensity_scaled == saved["peak_intensity_scaled"]
    assert again.delay_time == saved["delay_time"]
    assert again.envelope_fwhm == saved["envelope_fwhm"]
    assert again.tau_c_measured == saved["tau_c_measured"]
    assert again.tau_1_measured == saved["tau_1_measured"]
    assert again.pulse_count_half_height == saved["pulse_count_half_height"]
    for key, value in again.ratios.items():
        assert value == saved["ratios"][key]


def test_identical_configs_are_byte_identical(tmp_path):
    path = write_config(tmp_path, FAST_CONFIG)
    (a,) = run_config(path, out_dir=tmp_path / "a")
    (b,) = run_config(path, out_dir=tmp_path / "b")
    assert a.trajectory_path.read_bytes() == b.trajectory_path.read_bytes()


def test_config_duplicating_preset_matches_it(tmp_path):
    preset = run_preset("fig7", out_dir=tmp_path / "preset")
    doc = {
        "label": "dup",
        "params": {"n_atoms": 10_000, "omega0": 1e6, "g": 0.0},
        "regime": "dicke",
    }
    (dup,) = run_config(write_config(tmp_path, doc), out_dir=tmp_path / "dup")
    assert dup.trajectory_path.read_bytes() == preset.trajectory_path.read_bytes()


def test_resolved_config_embedded_in_metrics(tmp_path):
    path = write_config(tmp_path, FAST_CONFIG)
    (result,) = run_config(path, out_dir=tmp_path)
    doc = json.loads(result.metrics_path.read_text())
    cfg = doc["config"]
    assert cfg["params"]["n_atoms"] == 500
    assert cfg["params"]["regime"] == "weak"
    assert cfg["t_end"] > 0
    assert cfg["integration"]["rtol"] == 1e-9
    assert "theta0" in cfg["init"]
    assert "definitions" in doc


def test_sweep_produces_monotone_peaks(tmp_path):
    doc = dict(FAST_CONFIG)
    doc["sweep"] = {"param": "g", "values": [0.0, 10.0, 100.0]}
    results = run_config(write_config(tmp_path, doc), out_dir=tmp_path)
    assert len(results) == 3
    peaks = [r.metrics.peak_intensity_scaled for r in results]
    assert peaks[0] < peaks[1] < peaks[2]
    assert {r.label for r in results} == {"fast_g0", "fast_g10", "fast_g100"}


def test_invalid_n_atoms_names_field(tmp_path):
    doc = {"params": {"n_atoms": 1, "omega0": 1e4}}
    with pytest.raises(ParameterDomainError) as exc:
        run_config(write_config(tmp_path, doc), out_dir=tmp_path)
    assert exc.value.field == "n_atoms"


@pytest.mark.parametrize(
    "doc",
    [
        {"params": {"n_atoms": 100, "omega0": 1e4}, "bogus": 1},
        {"params": {"n_atoms": 100, "omega0": 1e4, "extra": 2.0}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "integration": {"rtoll": 1e-9}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "regime": "medium"},
        {"params": {"omega0": 1e4}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "outputs": {"formats": ["xml"]}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "sweep": {"param": "gamma", "values": [1]}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "outputs": {"formats": []}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "outputs": {"directory": 3}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "regime": ["weak"]},
        {"params": {"n_atoms": "100", "omega0": 1e4}},
        {"params": {"n_atoms": 100, "omega0": 1e4, "g": 1.0},
         "sweep": {"param": "g", "values": [1000000, 1000000.0001]}},
        {"params": {"n_atoms": 100, "omega0": 1e4}, "integration": {"dense": True}},
    ],
)
def test_bad_configs_rejected(tmp_path, doc):
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


# a section that is not an object, or a sweep without one of its required
# keys, and the exact message each is rejected with
SECTION_CASES = [
    ({"params": [500, 1e4]}, "'params' must be an object"),
    ({"init": 0.5}, "'init' must be an object"),
    ({"integration": None}, "'integration' must be an object"),
    ({"outputs": "out"}, "'outputs' must be an object"),
    ({"sweep": [1e4, 2e4]}, "'sweep' must be an object"),
    ({"sweep": {"param": "g"}}, "missing required key 'sweep.values'"),
]


@pytest.mark.parametrize("changes, message", SECTION_CASES)
def test_config_section_messages(changes, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(dict(FAST_CONFIG, **changes))
    assert str(exc.value) == message


# values that parse as JSON numbers but lie outside their domain, with the
# field each must be rejected under
NON_FINITE_CASES = [
    ({"params": {"n_atoms": 500, "omega0": 1e4, "g": math.nan}}, "g"),
    ({"params": {"n_atoms": 500, "omega0": math.inf, "g": 10.0}}, "omega0"),
    ({"t_end": math.nan}, "t_end"),
    ({"t_end": math.inf}, "t_end"),
    ({"sweep": {"param": "g", "values": [10.0, math.nan]}}, "g"),
    ({"init": {"phi0": math.inf}}, "phi"),
    ({"init": {"phi0": math.inf}, "regime": "strong"}, "phi"),
    ({"integration": {"max_step": 0}}, "max_step"),
    ({"integration": {"max_step": math.nan}}, "max_step"),
    ({"integration": {"rtol": math.inf}}, "rtol"),
    ({"integration": {"max_samples": math.nan}}, "max_samples"),
    ({"integration": {"max_samples": 5000.7}}, "max_samples"),
]


def fast_config_with(changes: dict) -> dict:
    doc = json.loads(json.dumps(FAST_CONFIG))
    for key, value in changes.items():
        if key == "params":
            doc["params"].update(value)
        else:
            doc[key] = value
    return doc


def test_flags_reach_every_sweep_point():
    doc = dict(FAST_CONFIG, t_end=0.5, sweep={"param": "g", "values": [0.0, 10.0, 100.0]})
    configs = parse_config(doc, t_end=2e-3, phi0=0.25)
    assert [(c.t_end, c.init.phi) for c in configs] == [(2e-3, 0.25)] * 3
    # a resolved config is a record, not something to patch afterwards
    with pytest.raises(FrozenInstanceError):
        configs[0].t_end = 1.0


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"params": {"n_atoms": 500, "omega0": 1e4}, "t_end": 0.5, "t_end": 0.001}', "t_end"),
        ('{"params": {"n_atoms": 500, "omega0": 1e4, "g": 10.0, "g": 0.0}}', "g"),
        ('{"params": {"n_atoms": 500, "omega0": 1e4}, "sweep": {"param": "g",'
         ' "values": [{"a": 1, "a": 2}]}}', "a"),
    ],
    ids=["top", "params", "inside-a-list"],
)
def test_duplicate_keys_rejected(tmp_path, text, key):
    # json keeps the last of a repeated key; the run would quietly drop the first
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
        load_config(path)


def test_init_phi0_alone_is_applied(tmp_path):
    doc = dict(FAST_CONFIG, init={"phi0": 0.5})
    (cfg,) = load_config(write_config(tmp_path, doc))
    assert cfg.init.phi == 0.5
    (plain,) = load_config(write_config(tmp_path, FAST_CONFIG, "plain.json"))
    assert cfg.init.theta == plain.init.theta


@pytest.mark.parametrize("formats", [["json"], ["csv"]])
def test_output_formats_select_the_files(tmp_path, capsys, formats):
    doc = dict(FAST_CONFIG, outputs={"formats": formats})
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    expected = {"csv": "fast_trajectory.csv", "json": "fast_metrics.json"}
    assert written == [expected[f] for f in formats]
    line = capsys.readouterr().out.strip()
    assert line == f"fast: wrote {tmp_path / 'out' / expected[formats[0]]}"


def test_cli_honours_config_output_directory(tmp_path, capsys):
    doc = dict(FAST_CONFIG, outputs={"directory": "results"})
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path)]) == 0
    assert (tmp_path / "results" / "fast_metrics.json").exists()


# JSON-like values: all JSON kinds, the non-finite numbers Python's json
# module accepts, and integers past float range
_numbers = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=True, allow_infinity=True),
)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), _numbers, st.text(max_size=6)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=6), kids, max_size=3)
    ),
    max_leaves=8,
)

# uses every key the config format knows
FULL_CONFIG = {
    "params": {"n_atoms": 500, "omega0": 1e4, "g": 10.0, "gamma": 1.0},
    # strong, since a weak-like run takes no theta0
    "regime": "strong",
    "label": "fast",
    "init": {"theta0": 0.01, "phi0": 0.5},
    "t_end": 1e-3,
    "integration": {"rtol": 1e-9, "atol": 1e-12, "max_samples": 1000, "max_step": 1e-6},
    "outputs": {"directory": "out", "formats": ["csv", "json"]},
    "sweep": {"param": "g", "values": [0.0, 10.0]},
}
_KEY_PATHS = [(key,) for key in FULL_CONFIG] + [
    (key, sub) for key, value in FULL_CONFIG.items() if isinstance(value, dict) for sub in value
]


@st.composite
def config_docs(draw):
    """FULL_CONFIG with a few keys dropped, set to arbitrary JSON values or
    joined by unknown keys."""
    doc = json.loads(json.dumps(FULL_CONFIG))
    for path in draw(st.lists(st.sampled_from(_KEY_PATHS), max_size=4)):
        parent = doc if len(path) == 1 else doc.get(path[0])
        if not isinstance(parent, dict):
            continue
        action = draw(st.sampled_from(["drop", "replace", "add"]))
        if action == "drop":
            parent.pop(path[-1], None)
        elif action == "replace":
            parent[path[-1]] = draw(_json)
        else:
            parent[draw(st.text(max_size=6))] = draw(_json)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=config_docs())
def test_parse_config_fuzz_only_raises_validation_errors(doc):
    try:
        configs = parse_config(doc)
    except (ConfigError, ParameterDomainError):
        return
    assert configs and all(isinstance(c, RunConfig) for c in configs)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n "params": {,}\n}')
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert "line 2" in str(exc.value)


def test_undecodable_config_rejected(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"params": "\xff"}')
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_nested_too_deep_rejected(tmp_path):
    # json recurses once per level and would end in a RecursionError
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="recursion"):
        load_config(path)


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_preset("fig9", out_dir=tmp_path)


def test_preset_overrides_recorded(tmp_path):
    result = run_preset("fig7", out_dir=tmp_path, t_end=1e-3, phi0=0.5)
    cfg = json.loads(result.metrics_path.read_text())["config"]
    assert cfg["t_end"] == 1e-3
    # the angle the closed form actually starts from
    assert cfg["init"]["theta0"] == default_initial_state(PRESETS["fig7"]).theta
    assert cfg["init"]["phi0"] == 0.5


@pytest.mark.parametrize("regime", ["weak", "dicke"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_weak_theta0_override_rejected(tmp_path, capsys, regime, where):
    # the closed form starts at the default angle; a theta0 it would ignore
    # is refused before any run writes a file
    doc = dict(FAST_CONFIG, regime=regime, params=dict(FAST_CONFIG["params"], g=0.0))
    argv = ["--theta0", "0.5"] if where == "flag" else []
    if where == "config":
        doc["init"] = {"theta0": 0.5}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err.startswith("validation error: theta0")
    assert not out.exists()


def test_weak_theta0_flag_rejected_for_a_preset_and_a_mixed_sweep(tmp_path, capsys):
    # the sweep's first point is strong, its last weak
    doc = dict(FAST_CONFIG, sweep={"param": "omega0", "values": [1e3, 1e6]})
    doc.pop("regime")
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--theta0", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("validation error: theta0")
    assert not out.exists()
    assert main(["preset", "fig7", "--theta0", "0.5", "--out", str(out)]) == 2
    assert not out.exists()


# --- command-line interface ----------------------------------------------

def test_cli_preset_runs(tmp_path, capsys):
    assert main(["preset", "fig7", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fig7_trajectory.csv").exists()
    assert (tmp_path / "fig7_metrics.json").exists()
    assert "fig7" in capsys.readouterr().out


def test_cli_run_with_config(tmp_path, capsys):
    path = write_config(tmp_path, FAST_CONFIG)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "fast_trajectory.csv").exists()


def test_cli_validation_exit_code(tmp_path, capsys):
    doc = {"params": {"n_atoms": 1, "omega0": 1e4}}
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "n_atoms" in capsys.readouterr().err


@pytest.mark.parametrize("changes, field", NON_FINITE_CASES)
def test_cli_out_of_domain_numbers_exit_code(tmp_path, capsys, changes, field):
    path = write_config(tmp_path, fast_config_with(changes))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {field}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["preset", "fig7", "--t-end", "nan"],
        ["preset", "fig7", "--t-end", "inf"],
        ["preset", "fig7", "--phi0", "inf"],
        ["preset", "fig7", "--rtol", "inf"],
    ],
)
def test_cli_out_of_domain_overrides_exit_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("validation error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "changes, flag, message",
    [
        ({"integration": {"rtol": 0}}, "--rtol=1e-9", "rtol: must be finite and positive, got 0"),
        ({"init": {"theta0": 5}}, "--theta0=0.1", "theta: must lie in [0, pi], got 5"),
    ],
)
def test_cli_flag_does_not_hide_a_bad_config_value(tmp_path, capsys, changes, flag, message):
    # a flag replaces the file's value only after that value has been checked
    path = write_config(tmp_path, dict(FAST_CONFIG, regime="strong", **changes))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out"), flag]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, field", [("rtol", "rtol"), ("t_end", "t_end"),
                                        ("theta0", "theta"), ("phi0", "phi")])
def test_library_flag_keyword_refuses_a_bool(tmp_path, key, field):
    # run_preset("fig2", rtol=True) ran at rtol = 1 and wrote "rtol": true
    with pytest.raises(ParameterDomainError, match=f"^{field}: .* not a bool") as exc:
        run_preset("fig2", out_dir=tmp_path / "out", **{key: True})
    assert exc.value.field == field
    assert not (tmp_path / "out").exists()


def test_cli_phi0_whose_double_overflows_exit_code(tmp_path, capsys):
    # finite, but 2*phi0 is inf and the strong equations take sin(2 phi)
    path = write_config(tmp_path, dict(FAST_CONFIG, regime="strong"))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv + ["--phi0=8.98846567431158e+307"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: phi")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_label_collision_exit_code(tmp_path, capsys):
    doc = dict(FAST_CONFIG, sweep={"param": "g", "values": [1000000, 1000000.0001]})
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: sweep.values")
    assert "1000000 " in err and "1000000.0001" in err and "'fast_g1e+06'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, value",
    [("label", "a\0b"), ("label", "<tmp>/abs/x"), ("outputs.directory", "a\0b")],
    ids=["nul", "absolute-path", "directory-nul"],
)
def test_cli_label_must_be_a_file_name_prefix(tmp_path, capsys, field, value):
    # the label names files inside the output directory, never a path; no
    # path holds a NUL, so neither may the directory, even where --out replaces it
    value = value.replace("<tmp>", str(tmp_path))
    if field == "label":
        doc = dict(FAST_CONFIG, label=value)
    else:
        doc = dict(FAST_CONFIG, outputs={"directory": value})
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {field}: ")
    assert [p.name for p in tmp_path.rglob("*")] == ["config.json"]


def test_cli_dense_zero_window_runs(tmp_path, capsys):
    doc = dict(FAST_CONFIG, regime="strong", t_end=0)
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "fast_metrics.json").read_text())["samples"] == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_boundary_peaked_record_writes_finite_metrics(tmp_path, capsys):
    # the window ends on the rise of the first superpulse: the largest
    # sample is the last one, which is no local maximum
    assert main(["preset", "fig4", "--t-end", "1.7e-8", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    text = (tmp_path / "fig4_metrics.json").read_text()
    metrics = json.loads(text, parse_constant=_reject_constant)["pulse_metrics"]
    intensity = read_trajectory_csv(tmp_path / "fig4_trajectory.csv")[4]
    assert intensity.argmax() == len(intensity) - 1
    assert metrics["peak_intensity_scaled"] == intensity.max()
    assert metrics["pulse_count_half_height"] == 1
    assert math.isfinite(metrics["tau_1_measured"])


def test_cli_run_without_emission_exit_code(tmp_path, capsys):
    # the excited pole is a fixed point, so the run never emits
    assert main(["preset", "fig2", "--theta0", "0", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: emission record is identically zero")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("existing", [None, "out", "out/a"])
def test_failed_analysis_removes_only_the_directories_it_made(tmp_path, capsys, existing):
    # theta0 = 1e-300 is no pole, but sin(theta0)^2 underflows: the intensity
    # is 0 at every sample, so the analysis fails after the CSV was staged
    if existing:
        (tmp_path / existing).mkdir(parents=True)
    out = tmp_path / "out" / "a" / "b"
    argv = ["preset", "fig2", "--theta0", "1e-300", "--t-end", "1e-4", "--out", str(out)]
    assert main(argv) == 2
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert left == ([] if existing is None else ["out", "out/a"][: existing.count("/") + 1])
    err = capsys.readouterr().err
    assert err.startswith("validation error: emission record is identically zero")
    assert "underflows" in err


def test_failed_analysis_keeps_a_directory_that_holds_a_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    argv = ["preset", "fig2", "--theta0", "1e-300", "--t-end", "1e-4", "--out", str(out / "new")]
    assert main(argv) == 2
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_cli_run_from_the_ground_state_exit_code(tmp_path, capsys, monkeypatch):
    # sin(pi) is 1.2e-16, not 0: the run is refused before integrating
    # instead of measuring pulses on roundoff
    def never(*args, **kwargs):
        raise AssertionError("integrated a ground-state run")

    monkeypatch.setattr(runner, "integrate_strong", never)
    assert main(["preset", "fig2", "--theta0", repr(math.pi), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: emission record is identically zero")
    assert not list(tmp_path.iterdir())


def test_output_files_take_the_umask_mode(tmp_path, capsys):
    out = tmp_path / "out"
    old = os.umask(0o022)
    try:
        run_config(write_config(tmp_path, FAST_CONFIG), out_dir=out)
        assert main(["oracle", "--n", "10", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    for name in ("fast_trajectory.csv", "fast_metrics.json", "oracle_n10_trajectory.csv",
                 "oracle_n10_summary.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644, name


def test_failed_csv_block_leaves_no_file(tmp_path, monkeypatch):
    blocks = []

    def fail_second(block):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise RuntimeError("formatter failed")
        return b""

    monkeypatch.setattr(runner, "format_rows", fail_second)
    n = 2 * runner._CSV_BLOCK_ROWS + 1
    path = tmp_path / "traj.csv"
    with pytest.raises(RuntimeError, match="formatter failed"):
        runner.write_trajectory_csv(path, [(np.arange(n, dtype=float), np.ones(n))])
    assert blocks == [runner._CSV_BLOCK_ROWS] * 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, field",
    [
        (["--n", "0"], "n_atoms"),
        (["--n", "10", "--gamma-eff", "0"], "gamma_eff"),
        (["--n", "10", "--gamma-eff", "nan"], "gamma_eff"),
        (["--n", "10", "--omega-ratio", "inf"], "omega_ratio"),
        (["--n", "10", "--t-end", "nan"], "t_end"),
        (["--n", "10", "--t-end", "inf"], "t_end"),
        (["--n", "2001"], "n_atoms"),
        # gamma_eff * t_end is finite, but the substep count is not
        (["--n", "100", "--gamma-eff", "1e300", "--t-end", "1e300"], "t_end"),
        # finite inputs whose scaled intensity, or only its time integral, overflows
        (["--n", "10", "--gamma-eff", "1e300", "--omega-ratio", "1e300"], "omega_ratio"),
        (["--n", "10", "--t-end", "1e300", "--omega-ratio", "1e300"], "t_end"),
        (["--n", "10", "--omega-ratio", "5e306"], "t_end"),
        # outputs further apart than the top rung's lifetime miss the pulse
        (["--n", "10", "--t-end", "1e6"], "t_end"),
        # an unset t_end whose default window 40 ln N/(N gamma_eff) leaves float range
        (["--n", "2", "--gamma-eff", "5e-324"], "gamma_eff"),
        (["--n", "2", "--gamma-eff", "1e308"], "gamma_eff"),
    ],
)
def test_cli_oracle_out_of_domain_numbers_exit_code(tmp_path, capsys, argv, field):
    assert main(["oracle", *argv, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {field}")
    assert not list(tmp_path.iterdir())


def test_cli_budget_exit_code(tmp_path, capsys):
    doc = dict(FAST_CONFIG)
    doc["t_end"] = 1e6  # grid would need ~1e10 samples
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3


def test_cli_budget_past_memory_exit_code(tmp_path, capsys):
    # the grid of 1e15 samples fits the budget, but its 7 PiB fit no 64-bit
    # address space, so numpy's allocation fails before anything is written
    doc = {"params": {"n_atoms": 10000, "omega0": 1e6, "g": 0},
           "integration": {"max_samples": 1e30}, "t_end": 1e8}
    path = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("integration error: ")
    assert not out.exists()


def test_cli_deep_phase_lock_exit_code(tmp_path, capsys):
    # a lock (N-1)/(4 omega0) of 2.5e9 cancels the locked sin^2 to 0 in its
    # usual form; the window then asks for far more samples than the budget.
    # A lock of 2.25e300 underflows even the rearranged form: the window is inf
    deepest = {"params": {"n_atoms": 10, "omega0": 1e-300}}
    cases = [({"params": {"n_atoms": 1_000_000_000, "omega0": 0.1}, "regime": "strong"},
              "1286163290563"),
             (deepest, "inf")]
    for doc, samples in cases:
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"integration error: output grid needs {samples} samples")
        assert "Traceback" not in err
    # an infinite window given explicitly stays a validation error
    path = write_config(tmp_path, {**deepest, "t_end": math.inf})
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("validation error: t_end: must be finite")
    assert not (tmp_path / "out").exists()
    # a window given by --t-end leaves the default window unresolved, as the
    # same window given in the file does
    path = write_config(tmp_path, deepest)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), "--t-end=1.0"]) == 0
    assert json.loads((out / "run_metrics.json").read_text())["config"]["t_end"] == 1.0


# default_t_end of every preset, pinned bit for bit: the deep-lock form of
# the locked envelope must not move a window that was already computed
PRESET_T_END_HEX = {
    "fig1": "0x1.f0bcb091c95ecp-10",
    "fig2": "0x1.1bd98977e0c86p-12",
    "fig3": "0x1.1bd98977e0c86p-12",
    "fig4": "0x1.920cd7a9a6bc6p-22",
    "fig5": "0x1.b25c232fb5a10p-25",
    "fig6": "0x1.748d846d57071p-8",
    "fig7": "0x1.7483fadd74ff2p-9",
    "fig8": "0x1.16d960f8a282fp-4",
}


def test_preset_default_t_end_bits():
    assert sorted(PRESET_T_END_HEX) == sorted(PRESETS)
    for name, p in PRESETS.items():
        assert resolve(p, name).t_end.hex() == PRESET_T_END_HEX[name], name


def test_library_run_is_the_preset_run(tmp_path):
    # the library resolves a run as the CLI does: the CSV columns, read
    # back from %.17g, are the trajectory's angles bit for bit
    traj = integrate_strong(resolve(PRESETS["fig2"], "fig2", t_end=2e-4))
    result = run_preset("fig2", t_end=2e-4, out_dir=tmp_path)
    _, theta, phi, _, _ = read_trajectory_csv(result.trajectory_path)
    for a, b in ((theta, traj.theta), (phi, traj.phi)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


def _execute_peak(cfg: RunConfig) -> tuple[int, int]:
    """(samples, traced peak bytes) of runner.execute on cfg."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = runner.execute(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return json.loads(result.metrics_path.read_text())["samples"], peak


@pytest.fixture(scope="module")
def fig5_peak(tmp_path_factory):
    """fig5, 1.01M samples, with the CSV."""
    out = tmp_path_factory.mktemp("fig5")
    return _execute_peak(resolve(PRESETS["fig5"], "fig5", out_dir=out))


@pytest.fixture(scope="module")
def long_fig7_peak(tmp_path_factory):
    """fig7 over 60 times its default window, 1.71M samples, JSON only."""
    t_end = 60 * resolve(PRESETS["fig7"], "fig7").t_end
    cfg = resolve(PRESETS["fig7"], "fig7", out_dir=tmp_path_factory.mktemp("fig7"), t_end=t_end)
    return _execute_peak(replace(cfg, formats=("json",)))


def test_run_peak_memory_is_t_intensity_and_a_few_blocks(fig5_peak):
    # fig5 keeps 1.01M samples: a run holds t and the intensity whole, and
    # theta, phi, energy and the CSV's text one block at a time
    n, peak = fig5_peak
    assert n > 10**6
    assert peak <= 2 * 8 * n + 6 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_weak_run_peak_memory_is_t_intensity_and_a_few_blocks(long_fig7_peak):
    # fig7 over 60 times its default window: the closed forms' temporaries
    # are one block's, not the grid's
    n, peak = long_fig7_peak
    assert n == 1_705_242
    assert peak <= 2 * 8 * n + 6 * 2**20, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("case", ["fig5_peak", "long_fig7_peak"])
def test_run_peak_memory_is_intensity_and_a_few_blocks(request, case):
    # the grid is two numbers, so the intensity is a run's one full-length
    # array: t, theta, phi, energy, the CSV's text and the analysis's
    # temporaries exist one block at a time
    n, peak = request.getfixturevalue(case)
    assert n > 10**6
    assert peak <= 8 * n + 3 * 2**20, f"{peak / 2**20:.2f} MiB"


def test_run_fills_every_row_once(tmp_path, monkeypatch):
    rows = []
    dense_output = rk.dense_output

    def counted(res, grid, lo=0, hi=None):
        values = dense_output(res, grid, lo, hi)
        rows.append(len(values[0]))
        return values

    monkeypatch.setattr(rk, "dense_output", counted)
    monkeypatch.setattr(rk, "_BLOCK", 4096)  # fig2's 56,849 rows in 14 blocks
    result = run_preset("fig2", out_dir=tmp_path)
    samples = json.loads(result.metrics_path.read_text())["samples"]
    assert len(rows) > 1
    assert sum(rows) == samples


def test_cli_budget_error_prints_a_short_count(tmp_path, capsys):
    assert main(["preset", "fig7", "--t-end", "1e300", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("integration error: output grid needs ")
    assert len(err) < 200
    # counts a float still holds exactly are printed in full
    assert "needs 10000000001 samples" in str(SampleBudgetError(10**10 + 1, 2_000_000))


def test_cli_io_exit_code(tmp_path, capsys):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("plain file")
    path = write_config(tmp_path, FAST_CONFIG)
    code = main(["run", "--config", str(path), "--out", str(blocker / "sub")])
    assert code == 4
    assert "i/o error" in capsys.readouterr().err


def test_cli_oracle(tmp_path, capsys):
    assert main(["oracle", "--n", "10", "--gamma-eff", "1.0", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "oracle_n10_summary.json").read_text())
    assert summary["quanta_emitted"] == pytest.approx(10.0, rel=1e-6)
    csv = (tmp_path / "oracle_n10_trajectory.csv").read_text().splitlines()
    assert csv[0] == "gamma_t,mean_m,intensity_over_gamma_omega0"


def test_runs_do_not_import_decimal(tmp_path):
    # params.short_repr imports decimal only to refuse a huge integer; on the
    # run path it would add about 0.3 MiB to every run's peak memory
    out = str(tmp_path)
    script = ("import sys\nfrom superpulse.cli import main\n"
              f"assert main(['oracle', '--n', '10', '--out', {out!r}]) == 0\n"
              f"assert main(['preset', 'fig2', '--out', {out!r}]) == 0\n"
              "print('decimal' in sys.modules)\n")
    src = str(Path(runner.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_oracle_summary_describes_its_run(tmp_path):
    runner.write_oracle(tmp_path, evolve_ladder(10, 2.5, omega_ratio=3.0))
    summary = json.loads((tmp_path / "oracle_n10_summary.json").read_text())
    assert (summary["n_atoms"], summary["gamma_eff"], summary["omega_ratio"]) == (10, 2.5, 3.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "oracle_n10_summary.json", "oracle_n10_trajectory.csv"
    ]


# CLI float overrides: anything float() accepts, with the edge values forced in
_override_floats = st.one_of(
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]), st.floats()
)
_OVERRIDES = ("--theta0", "--phi0", "--t-end", "--rtol")
# every run stays cheap: at most this many grid samples and accepted steps
_FUZZ_MAX_SAMPLES = 20_000


def _nested(doc: dict, path: tuple) -> dict | None:
    """The dict that holds path[-1], created empty if absent; None if a non-dict is there."""
    if len(path) == 1:
        return doc
    parent = doc.setdefault(path[0], {})
    return parent if isinstance(parent, dict) else None


@st.composite
def fast_config_mutants(draw):
    """FAST_CONFIG in any regime, with a few keys dropped, set to
    FULL_CONFIG's value, to an edge-case number or to arbitrary JSON, or
    joined by unknown keys; the sample budget is then pinned at
    _FUZZ_MAX_SAMPLES or below."""
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["regime"] = draw(st.sampled_from(sorted(r.value for r in Regime)))
    for path in draw(st.lists(st.sampled_from(_KEY_PATHS), max_size=4)):
        parent = _nested(doc, path)
        if parent is None:
            continue
        action = draw(st.sampled_from(["drop", "full", "number", "replace", "add"]))
        if action == "drop":
            parent.pop(path[-1], None)
        elif action == "full":
            value = FULL_CONFIG[path[0]] if len(path) == 1 else FULL_CONFIG[path[0]][path[1]]
            parent[path[-1]] = json.loads(json.dumps(value))
        elif action == "number":
            parent[path[-1]] = draw(_override_floats)
        elif action == "replace":
            parent[path[-1]] = draw(_json)
        else:
            parent[draw(st.text(max_size=6))] = draw(_json)
    integration = _nested(doc, ("integration", "max_samples"))
    if integration is not None:
        ms = integration.get("max_samples")
        if not (type(ms) in (int, float) and ms <= _FUZZ_MAX_SAMPLES):
            integration["max_samples"] = _FUZZ_MAX_SAMPLES
    return doc


@settings(max_examples=300, deadline=None)
@given(
    doc=fast_config_mutants(),
    overrides=st.lists(st.tuples(st.sampled_from(_OVERRIDES), _override_floats), max_size=4),
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_run_fuzz_exits_with_a_documented_code(doc, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        argv = ["run", "--config", str(path), "--out", str(Path(tmp) / "out")]
        # the --flag=value form keeps argparse from reading "-inf" as a flag
        argv += [f"{flag}={value!r}" for flag, value in overrides]
        code = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:  # every metrics file is strict JSON: no Infinity or NaN
            for metrics in Path(tmp).rglob("*_metrics.json"):
                json.loads(metrics.read_text(), parse_constant=_reject_constant)


# oracle floats: anything float() accepts, with the edge values and both
# ends of the float range forced in
_oracle_floats = st.one_of(
    st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300, 1e-300]), st.floats()
)


# the interval propagator's cost grows with log(t_end), not t_end, so any
# window is cheap; N is held to 200 so each (N+1)^2 matrix stays small
@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    options=st.lists(
        st.tuples(st.sampled_from(("--t-end", "--gamma-eff", "--omega-ratio")), _oracle_floats),
        max_size=3,
    ),
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_oracle_fuzz_exits_with_a_documented_code(n, options):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["oracle", "--n", str(n), "--out", tmp]
        argv += [f"{flag}={value!r}" for flag, value in options]
        code = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:  # the summary is strict JSON: no Infinity or NaN
            json.loads(
                (Path(tmp) / f"oracle_n{n}_summary.json").read_text(),
                parse_constant=_reject_constant,
            )


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in strict JSON")
