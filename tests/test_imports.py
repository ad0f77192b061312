"""What a fresh interpreter loads: the exact pipeline runs on numpy alone,
scipy is imported by the eigensolver on first use."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import isodrum

SRC = str(Path(isodrum.__file__).resolve().parents[1])


def loaded_after(body, tmp_path):
    """Run ``body`` in a fresh interpreter with isodrum importable.  The body
    calls ``check(label)`` to record whether scipy and numpy.ma are loaded
    at that point, and ``run(argv)`` to run a CLI command in process.
    Returns {label: {module: loaded}}."""
    script = textwrap.dedent("""
        import io, json, sys, contextlib
        stages = []
        def check(label):
            stages.append([label, {m: m in sys.modules for m in ("scipy", "numpy.ma")}])
        def run(argv):
            from isodrum import cli
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    """) + textwrap.dedent(body) + "\nprint(json.dumps(stages))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return dict(json.loads(out.stdout.splitlines()[-1]))


def test_exact_pipeline_never_loads_scipy(tmp_path):
    stages = loaded_after("""
        import isodrum, isodrum.cli
        check("import")
        run(["catalog", "emit", "--nq", "3,2", "--out", "psl32.spec"])
        run(["verify", "psl32.spec"])
        check("verify")
    """, tmp_path)
    assert stages["import"]["scipy"] is False
    assert stages["verify"] == {"scipy": False, "numpy.ma": False}


def test_spectrum_loads_scipy(tmp_path):
    (tmp_path / "tri.ivs").write_text("tiles: 1\nsides: 3\nside 1: ; boundary: 1\n"
                                      "side 2: ; boundary: 1\nside 3: ; boundary: 1\n")
    stages = loaded_after("""
        run(["unfold", "--system", "tri.ivs", "--tile", "half-square", "--json", "tri.json"])
        check("unfold")
        run(["spectrum", "--domain", "tri.json", "--k", "3", "--h", "1/16"])
        check("spectrum")
    """, tmp_path)
    assert stages["unfold"]["scipy"] is False
    assert stages["spectrum"]["scipy"] is True
