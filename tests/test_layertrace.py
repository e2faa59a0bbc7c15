"""The benchmark's layer tracer still finds every function it wraps.

`perfbench/layertrace.py` wraps the program's layer boundaries by name.  A
rename would leave a layer untraced, and its per-layer numbers would read
zero only because the tracer no longer sees the code.
"""

import json
import subprocess
import sys
from pathlib import Path

from conftest import child_env

ROOT = Path(__file__).resolve().parents[1]


def test_layertrace_finds_every_layer(tmp_path):
    cfg = json.loads((ROOT / "src" / "ipslearn" / "configs" / "vol32.json").read_text())
    cfg.update(n_steps=2, dump_trajectory=True)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layertrace.py"), str(trace), "--",
         "estimate", "--config", str(config), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["not_found"] == []
