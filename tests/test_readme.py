"""The README's examples run as written, so a renamed field or function
fails the suite."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from geomgate.config import config_from_dict

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_example_config_loads():
    (example,) = _blocks("json")
    cfg = config_from_dict(json.loads(example))
    assert cfg.synth.gate == "H" and len(cfg.qpt) == 8
    assert cfg.rb.interleaved == ("H",)


def test_readme_library_quick_start_runs(tmp_path):
    section = README.split("\n## Library quick start\n", 1)[1]
    (code,) = _blocks("python", section.split("\n## ", 1)[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4
