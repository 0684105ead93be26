import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import geomgate
from geomgate import (benchmarking, channels, cli, config, evolution, qcore,
                      selftest, tomography)
from geomgate.config import (MAX_SEGMENT_STEPS, config_from_dict,
                             config_to_dict, load_config)
from geomgate.errors import ConfigError, mode_string, parse_mode
from geomgate.evolution import (MIN_TRAJECTORY_STEPS, DeviceParams,
                                evolve_unitary, lindblad_generator)
from geomgate.pulse import synthesize
from geomgate.selftest import run_selftest

PI = math.pi
ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

BASE = {
    "device": {"T1_us": 19.0, "T2_star_us": 10.0, "f10_GHz": 5.266,
               "readout_f0": 0.98, "readout_f1": 0.936},
    "segment_duration_ns": 10.0,
    "dt_ns": 0.01,
    "mode": "exact",
    "seed": 42,
}


def _write_config(tmp_path, extra, name="cfg.json", base=None):
    data = dict(BASE if base is None else base)
    data.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_parse_mode():
    assert parse_mode("exact") is None
    assert parse_mode("shots:4096") == 4096
    assert mode_string(None) == "exact"
    assert mode_string(128) == "shots:128"
    # a mode has one spelling: a bare "shots" names no count, and a count
    # is plain ASCII digits, so the report's mode string is the input's
    for text in ("shots", "shots:0", "shots: 7", "shots:+5", "shots:007",
                 "shots:1_000", "shots:\u0667", "shots:7\n", "Exact"):
        with pytest.raises(ConfigError, match=r"'exact' or 'shots:<n>'"):
            parse_mode(text)
    with pytest.raises(ConfigError):
        parse_mode("shots:abc")
    with pytest.raises(ConfigError):
        parse_mode("approximate")
    # a count must also be one Generator.binomial takes
    assert parse_mode(f"shots:{2**63 - 1}") == 2**63 - 1
    for text in (f"shots:{2**63}", "shots:" + "9" * 5000):
        with pytest.raises(ConfigError,
                           match=r"^mode: shots must be 1\.\.9223372036854775807"):
            parse_mode(text)


def test_load_valid_config(tmp_path):
    path = _write_config(tmp_path, {"synth": {"gate": "H"}})
    cfg = load_config(path)
    assert cfg.device.T1_us == 19.0
    assert cfg.shots is None
    assert cfg.seed == 42
    assert cfg.synth.spec.gamma == pytest.approx(PI)


def test_unknown_field_rejected(tmp_path):
    path = _write_config(tmp_path, {"bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        load_config(path)
    path = _write_config(tmp_path, {"rb": {"lengths": [1, 2], "junk": True}})
    with pytest.raises(ConfigError, match="junk"):
        load_config(path)
    path = _write_config(tmp_path, {"device": {**BASE["device"], "T3": 1}})
    with pytest.raises(ConfigError, match="T3"):
        load_config(path)


def test_invalid_values_rejected(tmp_path):
    bad_device = dict(BASE["device"], T1_us=-1.0)
    path = _write_config(tmp_path, {"device": bad_device})
    with pytest.raises(ConfigError, match="T1"):
        load_config(path)
    path = _write_config(tmp_path, {"rb": {"lengths": [4, 2]}})
    with pytest.raises(ConfigError, match="increasing"):
        load_config(path)
    path = _write_config(tmp_path, {"rb": {"randomizations": 1}})
    with pytest.raises(ConfigError, match="randomizations"):
        load_config(path)
    # the decay fit needs three lengths; the run must not start without them
    path = _write_config(tmp_path, {"rb": {"lengths": [1, 2],
                                           "randomizations": 2}})
    with pytest.raises(ConfigError, match="3 sequence lengths"):
        load_config(path)
    assert cli.main(["rb", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
    path = _write_config(tmp_path, {"dt_ns": 5.0})
    with pytest.raises(ConfigError, match="dt_ns"):
        load_config(path)
    path = _write_config(tmp_path, {"qpt": {"gates": ["Nope"]}})
    with pytest.raises(ConfigError):
        load_config(path)
    # a section that is not a JSON object
    for extra in ({"device": 5}, {"device": []}, {"synth": "H"},
                  {"qpt": ["H"]}):
        path = _write_config(tmp_path, {"rb": {}, **extra})
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(path)
        assert cli.main(["rb", "--config", str(path), "--out",
                         str(tmp_path / "o")]) == 2
    # a mode that is not a string
    for mode in (5, None):
        path = _write_config(tmp_path, {"mode": mode, "synth": {"gate": "H"}})
        with pytest.raises(ConfigError, match="mode"):
            load_config(path)
        assert cli.main(["synth", "--config", str(path), "--out",
                         str(tmp_path / "o")]) == 2
    # RB settings are checked before any int()/bool() coercion
    for rb, field in (({"lengths": [1.5, 2.9, 4]}, "length"),
                      ({"lengths": ["2", "4", "6"]}, "length"),
                      ({"lengths": [True, 2, 3]}, "length"),
                      ({"randomizations": 2.7}, "randomizations"),
                      ({"randomizations": "50"}, "randomizations"),
                      ({"readout_correction": "false"}, "readout_correction"),
                      ({"readout_correction": 0}, "readout_correction")):
        path = _write_config(tmp_path, {"rb": rb})
        with pytest.raises(ConfigError, match=field):
            load_config(path)
    assert cli.main(["rb", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
    # gate lists are JSON lists of distinct gate names, spelled exactly
    for extra, field in (({"rb": {"interleaved": "Rx(pi)"}}, "interleaved"),
                         ({"rb": {"interleaved": ["H", "h"]}}, "interleaved"),
                         ({"rb": {"interleaved": [["H"]]}}, "interleaved"),
                         ({"qpt": {"gates": "H"}}, "gates"),
                         ({"qpt": {"gates": ["Rx(pi)", "rx (pi)"]}}, "gates"),
                         ({"qpt": {"gates": ["H", "H"]}}, "gates")):
        path = _write_config(tmp_path, extra)
        with pytest.raises(ConfigError, match=field):
            load_config(path)
        assert cli.main([next(iter(extra)), "--config", str(path), "--out",
                         str(tmp_path / "o")]) == 2
    section = config_from_dict({"rb": {"lengths": [2.0, 4, 8.0],
                                       "randomizations": 3.0}}).rb
    lengths = section.config.sequence_lengths
    assert lengths == (2, 4, 8) and section.config.randomizations == 3
    assert all(type(m) is int for m in lengths)


def test_top_level_numbers_checked_before_coercion(tmp_path):
    device = BASE["device"]
    angles = {"theta": 0.1, "phi": 0.2, "gamma": 0.3}
    for extra, field in (({"seed": 1.5}, "seed"),
                         ({"seed": "7"}, "seed"),
                         ({"seed": True}, "seed"),
                         ({"seed": None}, "seed"),
                         ({"seed": -1}, "seed"),
                         ({"segment_duration_ns": "10"}, "segment_duration_ns"),
                         ({"segment_duration_ns": True}, "segment_duration_ns"),
                         ({"dt_ns": "0.01"}, "dt_ns"),
                         ({"dt_ns": False}, "dt_ns"),
                         ({"dt_ns": [0.01]}, "dt_ns"),
                         # device fields and synth angles as well
                         ({"device": {**device, "T1_us": True}}, "T1_us"),
                         ({"device": {**device, "readout_f0": True}},
                          "readout_f0"),
                         ({"device": {**device, "f10_GHz": "5"}}, "f10_GHz"),
                         ({"device": {**device, "f10_GHz": None}}, "f10_GHz"),
                         ({"synth": {**angles, "theta": True}}, "theta"),
                         ({"synth": {**angles, "theta": "1"}}, "theta")):
        path = _write_config(tmp_path, {"synth": {"gate": "H"}, **extra})
        with pytest.raises(ConfigError, match=field):
            load_config(path)
        assert cli.main(["synth", "--config", str(path), "--out",
                         str(tmp_path / "o")]) == 2
    # infinities and NaN are not JSON, but Python's json module reads them
    for text in ('{"segment_duration_ns": Infinity}', '{"dt_ns": NaN}',
                 '{"device": {"T1_us": Infinity, "T2_star_us": 10.0}}',
                 '{"device": {"T1_us": 19.0, "T2_star_us": 10.0, '
                 '"f10_GHz": NaN}}'):
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite"):
            load_config(path)
    cfg = config_from_dict({"seed": 2.0, "segment_duration_ns": 10,
                            "dt_ns": 0.01, "synth": {"gate": "H"}})
    assert type(cfg.seed) is int and cfg.seed == 2
    assert type(cfg.segment_duration_ns) is float
    out = tmp_path / "two"
    path = _write_config(tmp_path, {"seed": 2.0, "synth": {"gate": "H"}})
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
    # reported as 2, not 2.0
    assert '"seed": 2,' in (out / "phase_report.json").read_text()


def test_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "seed": 1,\n  oops\n}')
    with pytest.raises(ConfigError, match=r"broken\.json:3"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="no such file"):
        load_config("/nonexistent/path.json")


def test_synth_gate_resolution():
    def synth(section):
        return config_from_dict({"synth": section}).synth

    assert synth({"gate": "Rz(pi/2)"}).spec.gamma == pytest.approx(PI / 2)
    spec = synth({"theta": 0.1, "phi": 0.2, "gamma": 0.3}).spec
    assert (spec.theta, spec.phi, spec.gamma) == (0.1, 0.2, 0.3)
    with pytest.raises(ConfigError, match="not both"):
        synth({"gate": "H", "theta": 0.1, "phi": 0.0, "gamma": 1.0})
    with pytest.raises(ConfigError, match="need a gate name"):
        synth({"theta": 0.1})
    with pytest.raises(ConfigError, match="need a gate name"):
        synth({})
    with pytest.raises(ConfigError, match="gate name"):
        synth({"gate": 5})


def test_config_to_dict_materializes_defaults():
    cfg = config_from_dict({"synth": {"gate": "H"}})
    data = config_to_dict(cfg)
    assert data["mode"] == "exact"
    assert data["segment_duration_ns"] == 10.0
    assert data["dt_ns"] == 0.01
    assert data["device"] is None
    assert data["synth"]["theta"] == pytest.approx(PI / 4)


def test_config_round_trips_through_its_report_form():
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = load_config(path)
        assert config_from_dict(config_to_dict(cfg)) == cfg
    # a named synth gate's report states its angles as well
    cfg = config_from_dict({"synth": {"gate": "H"}})
    assert config_from_dict(config_to_dict(cfg)) == cfg
    # every device field set away from its default, so a field that the
    # report leaves out fails the round trip
    device = {"T1_us": 12.5, "T2_star_us": 7.5, "f10_GHz": 4.75,
              "readout_f0": 0.97, "readout_f1": 0.95}
    assert set(device) == {f.name for f in dataclasses.fields(DeviceParams)}
    cfg = config_from_dict({"device": device, "mode": "shots:100", "seed": 3,
                            "synth": {"theta": 0.1, "phi": 0.2, "gamma": 0.3},
                            "qpt": {"gates": ["H"]},
                            "rb": {"lengths": [1, 3, 5], "randomizations": 4,
                                   "interleaved": ["I"],
                                   "readout_correction": False}})
    data = config_to_dict(cfg)
    assert data["device"] == device
    assert config_from_dict(data) == cfg


def test_shipped_configs_load():
    paths = sorted(CONFIGS.glob("*.json"))
    assert [p.name for p in paths] == ["qpt_xmon.json", "rb_xmon.json",
                                       "synth_xmon.json"]
    for path in paths:
        load_config(path)


def _rk4_factor(z):
    return np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)


def test_rk4_factor_at_most_one_on_the_stated_half_disk():
    r = config.RK4_HALF_DISK
    angles = np.linspace(PI / 2, 3 * PI / 2, 100001)
    arc = r * np.exp(1j * angles)
    disk = np.linspace(0.0, r, 401)[:, None] * np.exp(1j * angles[::100])
    axis = 1j * np.linspace(-r, r, 100001)
    assert _rk4_factor(arc).max() <= 1.0
    assert _rk4_factor(disk).max() <= 1.0 + 1e-15
    # on the imaginary axis |R(iy)|^2 = 1 - y^6/72 + y^8/576, 1 to rounding
    # near 0
    assert _rk4_factor(axis).max() <= 1.0 + 1e-15
    # and the radius is all but the largest: 1e-4 further out sticks out
    assert _rk4_factor(arc * (1.0 + 1e-4)).max() > 1.0


def test_step_bound_covers_the_generator_norm():
    # 2 pi / T + max(sqrt 2 G1, G1 / 2 + Gphi) bounds the 2-norm of the
    # Lindblad generator at the sin^2 envelope's peak Rabi rate pi / T
    stiff = 0
    for t_ns, t1_us, t2_us in ((10.0, 19.0, 10.0), (10.0, 1e-3, 1e-2),
                               (2.0, 1e-4, 1e-5), (50.0, 1e-5, 1e-3),
                               (10.0, 1e-6, 10.0), (3.0, 1e-6, 1e-6),
                               (7.0, 10.0, 1e-7), (0.5, 2e-7, 3e-4),
                               # its first guess passes, and the search
                               # steps up to a largest dt_ns of
                               # 0.36354245932362744
                               (188.13322269997718, 0.0002587777278126536,
                                0.00019117469907201505)):
        device = DeviceParams(T1_us=t1_us, T2_star_us=t2_us)
        g1, gphi = device.gamma1_per_ns, device.gamma_phi_per_ns
        bound = 2 * PI / t_ns + max(math.sqrt(2) * g1, g1 / 2 + gphi)
        for phase in np.linspace(0.0, 2 * PI, 7):
            h = PI / t_ns * (math.cos(phase) * qcore.PAULIS[1]
                             + math.sin(phase) * qcore.PAULIS[2])
            gen = lindblad_generator(h, g1, gphi)
            assert np.linalg.norm(gen, 2) <= bound * (1 + 1e-12)
        # config loading bounds the step the kernel takes,
        # T / round(T / dt_ns): it names the largest dt_ns whose step keeps
        # step * bound within RK4_HALF_DISK and refuses the next float up,
        # whose step does not
        doc = {"device": {"T1_us": t1_us, "T2_star_us": t2_us},
               "segment_duration_ns": t_ns, "dt_ns": t_ns / 100,
               "qpt": {"gates": ["H"]}}
        if (t_ns / 100) * bound <= config.RK4_HALF_DISK:
            config_from_dict(doc)
            continue
        stiff += 1
        with pytest.raises(ConfigError, match="largest dt_ns") as exc:
            config_from_dict(doc)
        largest = float(str(exc.value).rsplit(" ", 1)[1])
        up = math.nextafter(largest, math.inf)
        assert (t_ns / round(t_ns / largest)) * bound <= config.RK4_HALF_DISK
        assert (t_ns / round(t_ns / up)) * bound > config.RK4_HALF_DISK
        config_from_dict({**doc, "dt_ns": largest})
        with pytest.raises(ConfigError, match="largest dt_ns"):
            config_from_dict({**doc, "dt_ns": up})
    assert stiff == 6


def test_stiff_step_refused_with_the_largest_passing_dt():
    doc = {"device": {"T1_us": 1e-6, "T2_star_us": 10.0},
           "segment_duration_ns": 10.0, "dt_ns": 0.01}
    for section in ({"qpt": {"gates": ["H"]}}, {"rb": {}}):
        with pytest.raises(ConfigError, match="largest dt_ns") as exc:
            config_from_dict({**doc, **section})
        largest = float(str(exc.value).rsplit(" ", 1)[1])
        assert 0 < largest < 0.01
        # the named step passes, the next float up does not
        config_from_dict({**doc, **section, "dt_ns": largest})
        with pytest.raises(ConfigError, match="largest dt_ns"):
            config_from_dict({**doc, **section,
                              "dt_ns": np.nextafter(largest, 1.0)})
    # synth runs no Lindblad step, so it is not refused
    config_from_dict({**doc, "synth": {"gate": "H"}})
    # no step count in range is enough when the decay rate overflows to
    # infinity, or when it needs more than MAX_SEGMENT_STEPS steps (T1 =
    # 1 fs needs about 5.4e6); then every dt_ns is refused and none named
    for t1_us in (1e-320, 1e-9):
        for dt in (10.0 / MAX_SEGMENT_STEPS, 0.01):
            with pytest.raises(ConfigError,
                               match="largest dt_ns that passes is 0.0$"):
                config_from_dict({**doc, "dt_ns": dt, "qpt": {},
                                  "device": {"T1_us": t1_us,
                                             "T2_star_us": 10.0}})


def test_dt_range_caps_a_segment_at_max_segment_steps():
    # the finest dt_ns is T / MAX_SEGMENT_STEPS; config refuses the next
    # float down
    for t_ns in (0.5, 10.0, 200.0):
        finest = t_ns / MAX_SEGMENT_STEPS
        doc = {"device": None, "segment_duration_ns": t_ns, "dt_ns": finest,
               "synth": {"gate": "H"}}
        assert config_from_dict(doc).dt_ns == finest
        below = math.nextafter(finest, 0.0)
        with pytest.raises(ConfigError, match="dt_ns") as exc:
            config_from_dict({**doc, "dt_ns": below})
        assert f"[{finest}, {t_ns / MIN_TRAJECTORY_STEPS}]" in str(exc.value)
    # a subnormal T, whose lower bound would be 0.0, is refused before it
    with pytest.raises(ConfigError, match="segment_duration_ns must be in"):
        config_from_dict({"segment_duration_ns": 5e-324, "dt_ns": 0.0})
    # the integrators take the finest dt_ns
    traj = evolve_unitary(synthesize(qcore.named_gate("H"), 10.0),
                          qcore.KET0, dt=10.0 / MAX_SEGMENT_STEPS)
    assert len(traj.times) == 3 * MAX_SEGMENT_STEPS + 1


def test_default_device_passes_at_the_coarsest_step():
    device = dataclasses.asdict(DeviceParams.default_xmon())
    for t_ns in (0.5, 10.0, 200.0):
        cfg = config_from_dict({"device": device, "segment_duration_ns": t_ns,
                                "dt_ns": t_ns / 100, "qpt": {}, "rb": {}})
        assert cfg.dt_ns == t_ns / 100


# ---------------------------------------------------------------------------
# CLI commands

def test_command_annotations_resolve():
    for command in (cli.cmd_synth, cli.cmd_qpt, cli.cmd_rb):
        hints = typing.get_type_hints(command)
        assert hints["cfg"].__name__ == "ExperimentConfig"


def test_package_exports_resolve():
    import geomgate

    assert [name for name in geomgate.__all__
            if not hasattr(geomgate, name)] == []
    assert len(set(geomgate.__all__)) == len(geomgate.__all__)


def test_cli_qpt_shipped_config(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["qpt", "--config", str(CONFIGS / "qpt_xmon.json"),
                     "--out", str(out)]) == 0
    summary = json.loads((out / "qpt_summary.json").read_text())
    assert len(summary["fidelities"]) == 8
    assert 0.99 < summary["average_fidelity"] < 1.0

@pytest.mark.parametrize("command, config, allowed", [
    ("synth", "synth_xmon.json", ()),
    ("qpt", "qpt_xmon.json", ()),
    ("rb", "rb_xmon.json", ("solve",)),  # the decay fit's 3x3 step
], ids=["synth", "qpt", "rb"])
def test_exact_runs_call_no_lapack_eigen_or_svd_routine(
        tmp_path, capsys, monkeypatch, command, config, allowed):
    # exact synth and qpt call no LAPACK routine, and rb only the fit's
    # solve: every public numpy.linalg callable but norm and the allowed
    # ones raises
    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in np.linalg.__all__:
        if name not in {"norm", "LinAlgError", *allowed}:
            monkeypatch.setattr(np.linalg, name, refused(name))
    assert cli.main([command, "--config", str(CONFIGS / config),
                     "--out", str(tmp_path / "out")]) == 0


def test_readout_inverse_is_computed_once_per_run(monkeypatch, device):
    # the confusion matrix is fixed for a run: shot-mode RB inverts it once,
    # shot-mode QPT once per gate (its four outputs are one stack), exact
    # runs never
    inv, calls = np.linalg.inv, []

    def spy(a):
        calls.append(a)
        return inv(a)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    monkeypatch.setattr(np.linalg, "inv", spy)
    cache = channels.GateChannelCache()
    rb = benchmarking.RbConfig((1, 2, 3), randomizations=2, shots=64)
    for cfg, want in ((rb, 1), (dataclasses.replace(rb, shots=None), 0),
                      (dataclasses.replace(rb, readout_correction=False), 0)):
        assert count(lambda: benchmarking.run_rb(
            cfg, ["H", "Rz(pi)"], device, cache)) == want
    for shots, per_gate in ((64, 1), (None, 0)):
        assert count(lambda: [tomography.run_qpt(g, device, shots, 0, cache)
                              for g in ("I", "H")]) == 2 * per_gate


def test_cli_synth_writes_artifacts(tmp_path, capsys):
    path = _write_config(tmp_path, {"synth": {"gate": "H"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
    schedule = json.loads((out / "schedule.json").read_text())
    phases = [s["phase_rad"] for s in schedule["segments"]]
    assert phases == pytest.approx([-PI / 2, 0.0, -PI / 2])
    assert schedule["gamma"] == pytest.approx(PI)
    assert (out / "trajectory.csv").exists()
    assert (out / "bloch_path.csv").exists()
    report = json.loads((out / "phase_report.json").read_text())
    assert report["dynamical_phase"] == pytest.approx(0.0, abs=1e-6)
    assert report["geometric_phase"] == pytest.approx(-PI / 2, abs=1e-6)
    captured = capsys.readouterr()
    assert "geometric phase" in captured.out


def test_cli_synth_identity_gate(tmp_path, capsys):
    path = _write_config(tmp_path, {"synth": {"gate": "I"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "phase_report.json").read_text())
    assert report["total_phase"] == pytest.approx(0.0, abs=1e-6)
    assert report["geometric_phase"] == pytest.approx(0.0, abs=1e-6)


def test_cli_synth_writes_one_time_column_to_both_csvs(tmp_path, capsys):
    # the trajectory and Bloch-path CSVs carry the same t_ns text: repr of
    # each sample time, 3 segments of 500 steps after t = 0
    path = _write_config(tmp_path, {"dt_ns": 0.02,
                                    "synth": {"gate": "Rx(pi/2)"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 0
    trajectory, bloch = ([line.split(",")[0] for line in
                          (out / name).read_text().splitlines()]
                         for name in ("trajectory.csv", "bloch_path.csv"))
    times = evolve_unitary(synthesize(qcore.named_gate("Rx(pi/2)"), 10.0),
                           qcore.KET0, dt=0.02).times
    assert trajectory == bloch == ["t_ns", *map(repr, times.tolist())]
    assert len(trajectory) == 1 + 3 * 500 + 1


def test_cli_qpt_noiseless(tmp_path, capsys):
    path = _write_config(tmp_path, {"device": None,
                                    "qpt": {"gates": ["I", "H"]}})
    out = tmp_path / "out"
    assert cli.main(["qpt", "--config", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "qpt_summary.json").read_text())
    assert summary["average_fidelity"] == pytest.approx(1.0, abs=1e-6)
    assert (out / "qpt_h.json").exists()
    assert (out / "chi_h.csv").exists()
    report = json.loads((out / "qpt_h.json").read_text())
    assert report["config"]["mode"] == "exact"


def test_cli_qpt_deterministic_outputs(tmp_path):
    path = _write_config(tmp_path, {"device": None, "mode": "shots:512",
                                    "qpt": {"gates": ["H"]}})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["qpt", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["qpt", "--config", str(path), "--out", str(out2)]) == 0
    assert (out1 / "qpt_h.json").read_bytes() == (out2 / "qpt_h.json").read_bytes()


def test_cli_qpt_shot_report_independent_of_batch_and_order(tmp_path):
    # a gate's shot stream is keyed by the seed and its own angles, not by
    # its place in the run, so alone, in a list or in the list reversed it
    # writes the same report; only the embedded config records the list
    gates = ["H", "Rx(pi/2)", "Rz(pi)"]
    runs = {"all": gates, "reversed": gates[::-1]}
    runs.update({cli.gate_slug(g): [g] for g in gates})
    for out, names in runs.items():
        path = _write_config(tmp_path, {"mode": "shots:256",
                                        "qpt": {"gates": names}})
        assert cli.main(["qpt", "--config", str(path), "--out",
                         str(tmp_path / out)]) == 0

    def written(out, gate):
        slug = cli.gate_slug(gate)
        report = json.loads((tmp_path / out / f"qpt_{slug}.json").read_text())
        assert report.pop("config")["qpt"]["gates"] == runs[out]
        return report, (tmp_path / out / f"chi_{slug}.csv").read_bytes()

    for gate in gates:
        alone = written(cli.gate_slug(gate), gate)
        assert written("all", gate) == alone
        assert written("reversed", gate) == alone


def test_cli_rb_noiseless(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "device": None,
        "rb": {"lengths": [1, 2, 4, 8], "randomizations": 3,
               "interleaved": ["I"]}})
    out = tmp_path / "out"
    assert cli.main(["rb", "--config", str(path), "--out", str(out)]) == 0
    fit = json.loads((out / "rb_reference_fit.json").read_text())
    assert 1.0 - fit["p"] < 1e-6
    assert (out / "rb_reference.csv").exists()
    inter = json.loads((out / "rb_interleaved_i_fit.json").read_text())
    assert inter["F_g"] == pytest.approx(1.0, abs=1e-6)


def test_cli_rb_curves_independent_of_batch_and_reproducible(tmp_path,
                                                             capsys):
    rb = {"lengths": [2, 8, 16, 32, 64, 96], "randomizations": 6,
          "interleaved": ["H", "Rz(pi)"]}
    both = _write_config(tmp_path, {"mode": "shots:256", "rb": rb},
                         name="both.json")
    alone = _write_config(tmp_path, {"mode": "shots:256",
                                     "rb": {**rb, "interleaved": ["H"]}},
                          name="alone.json")
    outs = [tmp_path / name for name in ("b1", "b2", "a")]
    for path, out in zip((both, both, alone), outs):
        assert cli.main(["rb", "--config", str(path), "--out", str(out)]) == 0
    files = sorted(p.name for p in outs[0].iterdir())
    assert files == ["rb_interleaved_h.csv", "rb_interleaved_h_fit.json",
                     "rb_interleaved_rz_pi.csv", "rb_interleaved_rz_pi_fit.json",
                     "rb_reference.csv", "rb_reference_fit.json"]
    # the same seed writes the same bytes
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # a curve does not depend on which other curves share its batch
    assert ((outs[0] / "rb_interleaved_h.csv").read_bytes()
            == (outs[2] / "rb_interleaved_h.csv").read_bytes())
    fits = [json.loads((out / "rb_interleaved_h_fit.json").read_text())
            for out in (outs[0], outs[2])]
    assert fits[0]["config"]["rb"]["interleaved"] == ["H", "Rz(pi)"]
    for fit in fits:
        del fit["config"]["rb"]["interleaved"]
    assert fits[0] == fits[1]


def test_cli_rb_unconverged_fit_exits_3_with_reports(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(benchmarking, "MAX_FIT_ITERATIONS", 1)
    path = _write_config(tmp_path, {
        "rb": {"lengths": [2, 8, 16, 32], "randomizations": 3,
               "interleaved": ["H"]}})
    out = tmp_path / "out"
    assert cli.main(["rb", "--config", str(path), "--out", str(out)]) == 3
    assert (out / "rb_reference.csv").exists()
    assert (out / "rb_interleaved_h.csv").exists()
    fits = sorted(out.glob("*_fit.json"))
    assert [p.name for p in fits] == ["rb_interleaved_h_fit.json",
                                      "rb_reference_fit.json"]
    for fit in fits:
        assert json.loads(fit.read_text())["converged"] is False
    inter = json.loads((out / "rb_interleaved_h_fit.json").read_text())
    assert inter["interleaved_converged"] is False


@pytest.mark.parametrize("unconverged", [1, 0],
                         ids=["interleaved", "reference"])
def test_cli_rb_one_unconverged_fit_exits_3(tmp_path, capsys, monkeypatch,
                                            unconverged):
    # exactly one fit, counted in call order (the reference's first), reports
    # no convergence: the run still writes every report, then exits 3
    fit_decay = benchmarking.fit_decay
    calls = []

    def one_unconverged(*args, **kwargs):
        fit = fit_decay(*args, **kwargs)
        calls.append(fit)
        if len(calls) - 1 == unconverged:
            fit = dataclasses.replace(fit, converged=False)
        return fit

    monkeypatch.setattr(benchmarking, "fit_decay", one_unconverged)
    # lengths long enough that both fits converge on their own
    path = _write_config(tmp_path, {
        "rb": {"lengths": [2, 50, 100, 200], "randomizations": 3,
               "interleaved": ["H"]}})
    out = tmp_path / "out"
    assert cli.main(["rb", "--config", str(path), "--out", str(out)]) == 3
    assert len(calls) == 2 and all(fit.converged for fit in calls)
    assert sorted(p.name for p in out.iterdir()) == [
        "rb_interleaved_h.csv", "rb_interleaved_h_fit.json",
        "rb_reference.csv", "rb_reference_fit.json"]
    ref_line, inter_line = capsys.readouterr().out.splitlines()
    printed = [line.rsplit(" converged=", 1)[1] == "True"
               for line in (ref_line, inter_line)]
    assert printed == [k != unconverged for k in range(2)]
    ref = json.loads((out / "rb_reference_fit.json").read_text())
    inter = json.loads((out / "rb_interleaved_h_fit.json").read_text())
    assert ref["converged"] is inter["converged"] is printed[0]
    assert inter["interleaved_converged"] is printed[1]


def test_cli_unwritable_out_is_clean_error(tmp_path, capsys):
    path = _write_config(tmp_path, {"synth": {"gate": "H"}})
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli.main(["synth", "--config", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:")
        assert len(err.splitlines()) == 1


def test_cli_stiff_device_fails_quietly_and_writes_nothing(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "device": {"T1_us": 1e-6, "T2_star_us": 10.0},
        "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["qpt", "--config", str(path),
                         "--out", str(out)]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "largest dt_ns that passes" in err
    assert not out.exists()


@pytest.mark.parametrize("dt_ns", [1e-9, 5e-324])
@pytest.mark.parametrize("cmd", ["qpt", "synth"])
def test_cli_too_fine_dt_is_a_config_error(tmp_path, capsys, cmd, dt_ns):
    # below T / MAX_SEGMENT_STEPS the kernel would allocate 10^10 steps
    # (1e-9) or find no finite step count (5e-324); config refuses both
    path = _write_config(tmp_path, {"dt_ns": dt_ns, "synth": {"gate": "H"},
                                    "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert f"dt_ns = {dt_ns}" in err and "[0.0001, 0.1]" in err
    assert not out.exists()


@pytest.mark.parametrize("rb", [{"randomizations": 1_000_000_000},
                                {"lengths": [1, 2, 1_000_000_000]}])
def test_cli_rb_too_large_to_allocate_is_a_config_error(tmp_path, capsys, rb):
    # either asks for gigabytes of Clifford indices; config refuses both
    path = _write_config(tmp_path, {"device": None, "rb": rb})
    out = tmp_path / "out"
    assert cli.main(["rb", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert f"> {config.MAX_RB_DRAWS}" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["qpt", "rb"])
def test_cli_shots_beyond_the_binomial_limit_are_a_config_error(
        tmp_path, capsys, cmd):
    doc = {"device": None, "qpt": {"gates": ["H"]},
           "rb": {"lengths": [1, 2, 4], "randomizations": 2}}
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main([cmd, "--config", str(path), "--out", str(out),
                     "--mode", f"shots:{2**63}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert f"got {2**63}" in err
    assert not out.exists()
    largest = config_from_dict({**doc, "mode": f"shots:{2**63 - 1}"})
    assert largest.shots == largest.rb.config.shots == 2**63 - 1


def test_cli_shot_count_past_the_int_digit_limit(tmp_path, capsys):
    # 5,000 digits is past Python's int() limit, whose message names a
    # setting a config author cannot reach
    path = _write_config(tmp_path, {"device": None, "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    assert cli.main(["qpt", "--config", str(path), "--out", str(out),
                     "--mode", "shots:" + "9" * 5000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: mode: shots must be 1..")
    assert "set_int_max_str_digits" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"seed": ' + "1" * 5000 + "}", "integer string conversion"),
    ("[" * 100_000, "while decoding a JSON array"),
], ids=["5000-digit-seed", "100000-deep-array"])
def test_cli_json_past_the_parser_limits_is_a_config_error(
        tmp_path, capsys, text, message):
    # json.load raises ValueError (int()'s digit limit) or RecursionError
    # on these; both are config faults, told in one line
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: ") and message in err
    assert len(err.splitlines()) == 1
    assert "set_int_max_str_digits" not in err
    assert not out.exists()


def test_cli_stiff_step_refused_before_any_compile(tmp_path, capsys,
                                                   monkeypatch):
    compiled = []
    monkeypatch.setattr(channels, "gate_superops",
                        lambda specs, *args: compiled.append(specs))
    path = _write_config(tmp_path, {
        "device": {"T1_us": 1e-6, "T2_star_us": 10.0},
        "qpt": {"gates": ["H"]},
        "rb": {"lengths": [1, 2, 4], "randomizations": 2}})
    out = tmp_path / "out"
    for cmd in ("qpt", "rb"):
        assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert "largest dt_ns that passes is 0.00184" in err
    assert compiled == []
    assert not out.exists()


def test_cli_nan_channel_exits_4_and_writes_nothing(tmp_path, capsys,
                                                    monkeypatch):
    # check_physical stays the backstop behind the step check
    monkeypatch.setattr(
        channels, "gate_superops",
        lambda specs, *args: np.full((len(specs), 4, 4), np.nan, complex))
    path = _write_config(tmp_path, {"qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    assert cli.main(["qpt", "--config", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "not finite" in err
    assert not out.exists()


def test_cli_synth_overlong_segment_is_config_error(tmp_path, capsys):
    # a 1e308 ns segment would overflow its time grid; it is refused at
    # load, before numpy could warn (the suite makes a warning an error)
    path = _write_config(tmp_path, {"segment_duration_ns": 1e308,
                                    "dt_ns": 1e305, "synth": {"gate": "H"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "segment_duration_ns must be in [1e-06, 1e+06]" in err
    assert not out.exists()
    # the longest segment a config allows still loads
    cfg = config_from_dict({"segment_duration_ns": config.MAX_SEGMENT_NS,
                            "dt_ns": 1e4})
    assert cfg.segment_duration_ns == 1e6


def test_cli_synth_too_short_segment_is_config_error(tmp_path, capsys):
    # the peak Rabi rate pi / T of a 1e-310 ns segment overflows; the config
    # refuses it at load, and synthesize would raise InvalidDuration
    path = _write_config(tmp_path, {"device": None,
                                    "segment_duration_ns": 1e-310,
                                    "dt_ns": 1e-313, "synth": {"gate": "H"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1
    assert "segment_duration_ns must be in [1e-06, 1e+06], got 1e-310" in err
    assert not out.exists()
    # the shortest segment a config allows still loads, the next float down
    # does not
    doc = {"segment_duration_ns": config.MIN_SEGMENT_NS, "dt_ns": 1e-8}
    assert config_from_dict(doc).segment_duration_ns == 1e-6
    with pytest.raises(ConfigError, match="segment_duration_ns must be in"):
        config_from_dict({**doc, "segment_duration_ns":
                          math.nextafter(config.MIN_SEGMENT_NS, 0.0)})


def test_cli_synth_nan_states_exit_4_and_write_nothing(tmp_path, capsys,
                                                       monkeypatch):
    # NaN states must fail the cyclicity check, not reach the reports
    def nan_states(schedule, psi0, dt):
        traj = evolve_unitary(schedule, psi0, dt)
        traj.states[:] = np.nan
        return traj

    monkeypatch.setattr(evolution, "evolve_unitary", nan_states)
    path = _write_config(tmp_path, {"synth": {"gate": "H"}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cyclicity defect nan")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_mode_and_seed_overrides(tmp_path):
    path = _write_config(tmp_path, {"device": None, "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    assert cli.main(["qpt", "--config", str(path), "--out", str(out),
                     "--mode", "shots:256", "--seed", "7"]) == 0
    report = json.loads((out / "qpt_h.json").read_text())
    assert report["shots"] == 256
    assert report["seed"] == 7


def test_cli_rb_overrides_equal_the_same_config_values(tmp_path, capsys):
    rb = {"lengths": [2, 8, 16, 32, 64, 96], "randomizations": 6,
          "interleaved": ["H"]}
    flagged = _write_config(tmp_path, {"rb": rb}, name="flagged.json")
    written = _write_config(tmp_path, {"rb": rb, "mode": "shots:256",
                                       "seed": 5}, name="written.json")
    by_flag, by_file = tmp_path / "by_flag", tmp_path / "by_file"
    assert cli.main(["rb", "--config", str(flagged), "--out", str(by_flag),
                     "--mode", "shots:256", "--seed", "5"]) == 0
    assert cli.main(["rb", "--config", str(written), "--out",
                     str(by_file)]) == 0
    names = sorted(p.name for p in by_file.iterdir())
    assert sorted(p.name for p in by_flag.iterdir()) == names
    for name in names:
        assert (by_flag / name).read_bytes() == (by_file / name).read_bytes()
    for name in ("rb_reference_fit.json", "rb_interleaved_h_fit.json"):
        embedded = json.loads((by_flag / name).read_text())["config"]
        assert (embedded["mode"], embedded["seed"]) == ("shots:256", 5)
    # and the flags did change the run: the file's own values differ
    assert cli.main(["rb", "--config", str(flagged), "--out",
                     str(tmp_path / "own")]) == 0
    assert ((tmp_path / "own" / "rb_reference.csv").read_bytes()
            != (by_flag / "rb_reference.csv").read_bytes())


def test_cli_invalid_mode_flag_is_the_config_error(tmp_path, capsys):
    rb = {"lengths": [1, 2, 4], "randomizations": 2}
    flagged = _write_config(tmp_path, {"rb": rb}, name="flagged.json")
    written = _write_config(tmp_path, {"rb": rb, "mode": "shots"},
                            name="written.json")
    out = tmp_path / "o"
    assert cli.main(["rb", "--config", str(written), "--out", str(out)]) == 2
    from_file = capsys.readouterr().err
    assert cli.main(["rb", "--config", str(flagged), "--out", str(out),
                     "--mode", "shots"]) == 2
    from_flag = capsys.readouterr().err
    assert from_file.startswith("config error:")
    assert "'exact' or 'shots:<n>'" in from_file
    assert (from_flag.replace("flagged.json", "")
            == from_file.replace("written.json", ""))
    assert not out.exists()


def test_cli_negative_seed_flag_is_config_error(tmp_path, capsys):
    path = _write_config(tmp_path, {"synth": {"gate": "H"},
                                    "qpt": {"gates": ["H"]},
                                    "rb": {"lengths": [1, 2, 4],
                                           "randomizations": 2}})
    for cmd in ("synth", "qpt", "rb"):
        assert cli.main([cmd, "--config", str(path), "--out",
                         str(tmp_path / "o"), "--seed", "-3"]) == 2
    assert cli.main(["selftest", "--seed", "-3"]) == 2
    assert capsys.readouterr().err.count("--seed must be >= 0") == 4
    assert not (tmp_path / "o").exists()


def test_cli_out_from_environment(tmp_path, monkeypatch):
    path = _write_config(tmp_path, {"synth": {"gate": "Rz(pi)"}})
    envdir = tmp_path / "envout"
    monkeypatch.setenv("GEOMGATE_OUT", str(envdir))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--config", str(path)]) == 0
    assert (envdir / "schedule.json").exists()


def test_cli_empty_out_environment_means_the_default(tmp_path, monkeypatch):
    # Path("") is the current directory; an empty GEOMGATE_OUT is unset
    path = _write_config(tmp_path, {"synth": {"gate": "H"}})
    monkeypatch.setenv("GEOMGATE_OUT", "")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["synth", "--config", str(path)]) == 0
    assert (tmp_path / "geomgate_out" / "schedule.json").exists()
    assert not (tmp_path / "schedule.json").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"bogus": True})
    assert cli.main(["qpt", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_non_utf8_config_is_config_error(tmp_path, capsys):
    # JSON is UTF-8: a Latin-1 byte is refused like any other config fault
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"synth": {"gate": "H"}, "x": "\xe9"}')
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "not UTF-8" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_cli_missing_section_is_config_error(tmp_path):
    path = _write_config(tmp_path, {})
    assert cli.main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


def test_cli_config_errors_name_the_field(tmp_path, capsys):
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    cases = [("synth", {"synth": {"gate": "T"}}, ".synth: unknown gate 'T'"),
             ("synth", {"synth": {"theta": 4.0, "phi": 0.0, "gamma": 1.0}},
              ".synth: theta=4.0 outside [0, pi]"),
             ("qpt", {"qpt": {"gates": []}}, ".qpt: gates list is empty"),
             ("qpt", {"qpt": {"gates": ["H", "H"]}},
              ".qpt: gates lists 'H' twice"),
             ("rb", {"rb": {"interleaved": ["T"]}},
              ".rb: interleaved: unknown gate 'T'"),
             ("qpt", {"segment_duration_ns": 0.0, "qpt": {}},
              ": segment_duration_ns must be in [1e-06, 1e+06], got 0.0"),
             ("qpt", {"synth": {"gate": "H"}}, "config has no qpt section"),
             ("rb", {"qpt": {}}, "config has no rb section"),
             ("qpt", tmp_path, f"{tmp_path}: cannot read"),
             ("rb", array, f"{array}: top level must be a JSON object")]
    out = tmp_path / "out"
    for i, (cmd, doc, message) in enumerate(cases):
        path = (doc if isinstance(doc, Path)
                else _write_config(tmp_path, doc, name=f"case{i}.json"))
        assert cli.main([cmd, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1
        assert message in err
        assert not out.exists()


def test_gate_names_write_distinct_files():
    slugs = {cli.gate_slug(name) for name in qcore.GATE_NAMES}
    assert len(slugs) == len(qcore.GATE_NAMES) == 8


def test_section_parser_bugs_reach_the_caller(monkeypatch):
    # only input errors become config errors; a bug in a parser surfaces
    bug = RuntimeError("parser bug")

    def broken(*args):
        raise bug

    for parser, section in (("_parse_synth", "synth"), ("_parse_qpt", "qpt"),
                            ("_parse_rb", "rb")):
        with monkeypatch.context() as patch:
            patch.setattr(config, parser, broken)
            with pytest.raises(RuntimeError) as exc:
                config_from_dict({section: {}})
        assert exc.value is bug


_IMPORT_PROBE = """
import sys
import geomgate
import geomgate.cli
codes = [geomgate.cli.main([cmd, "--config", path, "--out", out])
         for cmd, path, out in zip(sys.argv[1::3], sys.argv[2::3],
                                   sys.argv[3::3])]
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("numpy.random" in sys.modules)
"""


def _run_fresh(tmp_path, docs):
    """Run each ``{command: config entries}`` of ``docs`` through
    ``cli.main`` in one fresh interpreter; return the lines it prints: the
    exit codes, the SciPy modules loaded and whether numpy.random was."""
    tmp_path.mkdir(exist_ok=True)
    argv = []
    for cmd, extra in docs.items():
        path = _write_config(tmp_path, extra, name=f"{cmd}.json")
        argv += [cmd, str(path), str(tmp_path / f"out_{cmd}")]
    return _python(tmp_path, _IMPORT_PROBE, *argv).splitlines()[-3:]


def _python(cwd, code, *argv):
    """The standard output of ``code`` run in a fresh interpreter on
    ``src/`` with ``argv``; the run must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_runs_without_scipy(tmp_path):
    # SciPy serves only the test oracles; a fresh interpreter (this one has
    # imported SciPy through other tests) must run every command without it
    docs = {"synth": {"synth": {"gate": "H"}},
            "qpt": {"qpt": {"gates": ["H"]}},
            "rb": {"rb": {"lengths": [1, 2, 4], "randomizations": 2}}}
    codes, scipy_modules, _ = _run_fresh(tmp_path, docs)
    assert codes == "[0, 0, 0]"
    assert scipy_modules == "[]"


def test_exact_runs_never_load_numpy_random(tmp_path):
    # exact QPT samples nothing, and exact RB draws its indices with its
    # own Philox kernel (only a rejected draw, p = 3.7e-9, would load
    # numpy.random to redraw its stream); shot sampling loads it
    rb = {"lengths": [1, 2, 4], "randomizations": 2}
    codes, _, loaded = _run_fresh(tmp_path / "exact", {
        "qpt": {"qpt": {"gates": ["H"]}}, "rb": {"rb": rb}})
    assert (codes, loaded) == ("[0, 0]", "False")
    codes, _, loaded = _run_fresh(tmp_path / "shots",
                                  {"rb": {"mode": "shots:16", "rb": rb}})
    assert (codes, loaded) == ("[0]", "True")


_LOAD_PROBE = """
import sys
import geomgate.cli
code = geomgate.cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("geomgate.")))
"""


@pytest.mark.parametrize("command, loaded", [
    ("synth", ["cli", "config", "errors", "evolution", "pulse", "qcore"]),
    ("qpt", ["channels", "cli", "config", "errors", "evolution", "pulse",
             "qcore", "tomography"]),
    ("rb", ["benchmarking", "channels", "cli", "config", "errors",
            "evolution", "pulse", "qcore"]),
])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command, loaded):
    # no command runs the selftest, synth compiles no channel, and neither
    # synth nor qpt runs the RB engine nor rb the QPT one: a fresh
    # interpreter never imports those modules
    out = _python(tmp_path, _LOAD_PROBE, command, "--config",
                  str(CONFIGS / f"{command}_xmon.json"), "--out", "out")
    last = out.splitlines()[-1].split()
    assert last == ["0", *(f"geomgate.{name}" for name in loaded)]


_CONFIG_LOAD_PROBE = """
import sys
from geomgate.config import load_config
load_config(sys.argv[1])
print(*sorted(m for m in sys.modules if m.startswith("geomgate.")))
"""


def test_reading_a_config_loads_no_protocol_engine(tmp_path):
    # an rb section is read into config's own RbConfig, so reading it
    # imports neither the RB engine nor the channels or QPT it runs on
    out = _python(tmp_path, _CONFIG_LOAD_PROBE, str(CONFIGS / "rb_xmon.json"))
    assert out.split() == [f"geomgate.{name}" for name in
                           ("config", "errors", "evolution", "pulse", "qcore")]


_EXPORT_PROBE = """
import importlib, json, pkgutil, sys
import geomgate
bare = [m for m in sys.modules if m.startswith("geomgate.")]
star = {}
exec("from geomgate import *", star)
wrong = []
submodules = [info.name for info in pkgutil.iter_modules(geomgate.__path__)]
for name in submodules:  # geomgate.<submodule> before its import
    if getattr(geomgate, name) is not sys.modules["geomgate." + name]:
        wrong.append(name)
for name in geomgate.__all__:
    # the object every submodule that binds the name binds
    bound = {id(vars(sys.modules["geomgate." + module])[name])
             for module in submodules
             if name in vars(sys.modules["geomgate." + module])}
    if bound != {id(star[name])} or getattr(geomgate, name) is not star[name]:
        wrong.append(name)
try:
    geomgate.no_such_name
    unknown = None
except AttributeError as err:
    unknown = str(err)
print(json.dumps({"bare": bare, "star": sorted(set(star) - {"__builtins__"}),
                  "all": sorted(geomgate.__all__), "submodules": submodules,
                  "wrong": wrong, "unknown": unknown}))
"""


def test_package_names_resolve_on_first_access(tmp_path):
    # `import geomgate` loads no submodule; each public name, the star
    # import and each submodule name then load the module that defines it
    out = json.loads(_python(tmp_path, _EXPORT_PROBE))
    assert out["bare"] == []
    assert out["star"] == out["all"] and len(out["all"]) == 31
    assert {"cli", "config", "selftest"} <= set(out["submodules"])
    assert out["wrong"] == []
    assert out["unknown"] == ("module 'geomgate' has no attribute "
                              "'no_such_name'")


# the top-level src/ names that no src/ code uses, each kept only because
# the bench tracer wraps it by name
_UNUSED_IN_SRC = {
    "sample_sequence",     # kept for bench/spans.py until ROADMAP item 1
    "run_reference_rb",    # kept for bench/spans.py until ROADMAP item 1
    "run_interleaved_rb",  # kept for bench/spans.py until ROADMAP item 1
    "gate_superop",        # kept for bench/spans.py until ROADMAP item 1
}


def test_every_src_name_is_used_in_src():
    # a top-level function, class or constant of src/geomgate is used when
    # src/ loads it by name or attribute, or the package exports it; a name
    # only tests use belongs in the tests
    defined, used = set(), {name for names in geomgate._EXPORTS.values()
                            for name in names}
    for path in (ROOT / "src" / "geomgate").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(target.id for target in node.targets
                               if isinstance(target, ast.Name))
            elif isinstance(node, ast.AnnAssign):
                defined.add(node.target.id)
        used.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load))
    dunders = {name for name in defined
               if name.startswith("__") and name.endswith("__")}
    assert len(defined) > 150
    assert defined - dunders - used == _UNUSED_IN_SRC


def test_cli_selftest_passes(capsys):
    assert cli.main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS clifford-group" in out
    assert "report sha256" in out


def test_cli_selftest_takes_no_out_or_mode(tmp_path, capsys):
    path = _write_config(tmp_path, {})
    for flags in (["--mode", "exact"], ["--out", str(tmp_path / "o")],
                  ["--config", str(path)]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_synth_takes_no_mode(tmp_path, capsys):
    # synth samples nothing, so a mode would only relabel its report
    path = _write_config(tmp_path, {"synth": {"gate": "H"}})
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--config", str(path), "--out", str(out),
                  "--mode", "exact"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    assert not out.exists()


def test_cli_selftest_failure_exit_code(monkeypatch, capsys):
    from geomgate.selftest import SelftestReport

    failing = SelftestReport(lines=["FAIL fake: boom"], failures=1)
    monkeypatch.setattr(selftest, "run_selftest", lambda seed: failing)
    assert cli.main(["selftest"]) == 4


def test_cli_selftest_reports_a_raising_suite(monkeypatch, capsys):
    # an error other than a failed check fails its suite; the rest still run
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(tomography, "run_qpt", boom)
    assert cli.main(["selftest", "--seed", "0"]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL qpt-noiseless: ValueError: boom" in lines
    assert "PASS rb-noiseless-depolarizing" in lines
    assert "9/10 suites passed (seed=0)" in lines


# ---------------------------------------------------------------------------
# selftest module

def test_selftest_deterministic_hash():
    a = run_selftest(seed=3)
    b = run_selftest(seed=3)
    assert a.all_passed
    assert a.digest == b.digest
    assert a.text == b.text


def test_selftest_corrupted_clifford_table_fails(monkeypatch):
    # element 5 of the group the suite checks is another gate's spec
    group = qcore.clifford_group()
    group[5] = qcore.GateSpec(0.2, 0.1, 0.3)
    monkeypatch.setattr(qcore, "clifford_group", lambda: group)
    report = run_selftest(seed=0)
    assert not report.all_passed
    # the first failing product in row-major order, as a pair-by-pair scan
    # of the corrupted list finds it
    assert "FAIL clifford-group: closure fails at (1, 1)" in report.lines


_FAILING_QPT_PROBE = """
import dataclasses, sys
from geomgate import cli, tomography
run_qpt = tomography.run_qpt
tomography.run_qpt = lambda *a, **k: dataclasses.replace(run_qpt(*a, **k),
                                                         fidelity=0.5)
sys.exit(cli.main(["selftest", "--seed", "0"]))
"""


def test_selftest_fails_under_python_optimize(tmp_path):
    # -O strips assert statements; a failing suite must still report FAIL
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", _FAILING_QPT_PROBE],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 4, proc.stderr
    assert "FAIL qpt-noiseless: H: F=0.5" in proc.stdout.splitlines()
    assert "9/10 suites passed (seed=0)" in proc.stdout.splitlines()
