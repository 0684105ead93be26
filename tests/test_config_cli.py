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

from geomgate import benchmarking, cli
from geomgate.config import (config_from_dict, config_to_dict, load_config,
                             mode_string, parse_mode)
from geomgate.errors import ConfigError
from geomgate.evolution import DeviceParams
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
    assert parse_mode("shots") == 4096
    assert mode_string(None) == "exact"
    assert mode_string(128) == "shots:128"
    with pytest.raises(ConfigError):
        parse_mode("shots:abc")
    with pytest.raises(ConfigError):
        parse_mode("approximate")


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
    # gate lists are JSON lists of gates that write distinct output files
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
    assert section.lengths == (2, 4, 8) and section.randomizations == 3
    assert all(type(m) is int for m in section.lengths)


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
    assert [p.name for p in paths] == ["qpt_xmon.json", "rb_xmon.json"]
    for path in paths:
        load_config(path)


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


def test_cli_non_physical_channel_exit_4(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "device": {"T1_us": 1e-6, "T2_star_us": 10.0},
        "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert cli.main(["qpt", "--config", str(path),
                         "--out", str(out)]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not (out / "qpt_summary.json").exists()


def test_cli_stiff_device_fails_quietly_and_writes_nothing(tmp_path, capsys):
    path = _write_config(tmp_path, {
        "device": {"T1_us": 1e-6, "T2_star_us": 10.0},
        "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["qpt", "--config", str(path),
                         "--out", str(out)]) == 4
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "not finite" in err
    assert not out.exists()


def test_cli_mode_and_seed_overrides(tmp_path):
    path = _write_config(tmp_path, {"device": None, "qpt": {"gates": ["H"]}})
    out = tmp_path / "out"
    assert cli.main(["qpt", "--config", str(path), "--out", str(out),
                     "--mode", "shots:256", "--seed", "7"]) == 0
    report = json.loads((out / "qpt_h.json").read_text())
    assert report["shots"] == 256
    assert report["seed"] == 7


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


def test_cli_config_error_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, {"bogus": True})
    assert cli.main(["qpt", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_section_is_config_error(tmp_path):
    path = _write_config(tmp_path, {})
    assert cli.main(["synth", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


_IMPORT_PROBE = """
import sys
import geomgate
import geomgate.cli
codes = [geomgate.cli.main([cmd, "--config", path, "--out", out])
         for cmd, path, out in zip(sys.argv[1::3], sys.argv[2::3],
                                   sys.argv[3::3])]
print(codes)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_runs_without_scipy(tmp_path):
    # SciPy serves only the test oracles; a fresh interpreter (this one has
    # imported SciPy through other tests) must run every command without it
    docs = {"synth": {"synth": {"gate": "H"}},
            "qpt": {"qpt": {"gates": ["H"]}},
            "rb": {"rb": {"lengths": [1, 2, 4], "randomizations": 2}}}
    argv = []
    for cmd, extra in docs.items():
        path = _write_config(tmp_path, extra, name=f"{cmd}.json")
        argv += [cmd, str(path), str(tmp_path / f"out_{cmd}")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = proc.stdout.splitlines()[-2:]
    assert codes == "[0, 0, 0]"
    assert scipy_modules == "[]"


def test_cli_selftest_passes(capsys):
    assert cli.main(["selftest", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS clifford-group" in out
    assert "report sha256" in out


def test_cli_selftest_takes_no_out_or_mode(tmp_path, capsys):
    for flags in (["--mode", "exact"], ["--out", str(tmp_path / "o")]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["selftest", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_selftest_failure_exit_code(monkeypatch, capsys):
    from geomgate.selftest import SelftestReport

    failing = SelftestReport(lines=["FAIL fake: boom"], failures=1)
    monkeypatch.setattr(cli, "run_selftest", lambda seed: failing)
    assert cli.main(["selftest"]) == 4


# ---------------------------------------------------------------------------
# selftest module

def test_selftest_deterministic_hash():
    a = run_selftest(seed=3)
    b = run_selftest(seed=3)
    assert a.all_passed
    assert a.digest == b.digest
    assert a.text == b.text


def test_selftest_corrupted_clifford_table_fails():
    report = run_selftest(seed=0, corrupt_clifford=True)
    assert not report.all_passed
    # the first failing product in row-major order, as a pair-by-pair scan
    # of the corrupted list finds it
    assert "FAIL clifford-group: closure fails at (1, 1)" in report.lines
