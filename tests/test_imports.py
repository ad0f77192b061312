"""What a fresh interpreter loads: the exact pipeline runs on numpy alone,
scipy is imported by the eigensolver on first use, and the CLI runs
catalog, constructions, drums and spectral only in the commands that use
them."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import isodrum
from isodrum.cli import main

SRC = str(Path(isodrum.__file__).resolve().parents[1])
DEFERRED = ("isodrum.catalog", "isodrum.constructions", "isodrum.drums", "isodrum.spectral")
WATCHED = ("scipy", "numpy.ma") + DEFERRED


def loaded_after(body, tmp_path):
    """Run ``body`` in a fresh interpreter with isodrum importable.  The body
    calls ``check(label)`` to record which of WATCHED have run their module
    code at that point, and ``run(argv)`` to run a CLI command in process.
    A module the CLI has registered but not yet executed (a lazy import)
    counts as not loaded.  Returns {label: {module: loaded}}."""
    script = textwrap.dedent(f"""
        import io, json, sys, types, contextlib
        stages = []
        def check(label):
            stages.append([label, {{m: type(sys.modules.get(m)) is types.ModuleType
                                   for m in {WATCHED!r}}}])
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


def loaded(stage):
    return {m for m, flag in stage.items() if flag}


@pytest.fixture
def specs(tmp_path, capsys):
    """psl32.spec and its compressed form in tmp_path, written in this process."""
    for extra, name in (([], "psl32.spec"), (["--compress"], "psl32c.spec")):
        assert main(["catalog", "emit", "--nq", "3,2", *extra, "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    return tmp_path


def test_import_loads_only_the_exact_core(tmp_path):
    stages = loaded_after("""
        import isodrum
        assert [m for m in sys.modules if m.startswith("isodrum.")] == []
        import isodrum.cli
        check("import")
    """, tmp_path)
    assert loaded(stages["import"]) == set()


def test_exact_pipeline_never_loads_scipy(specs):
    # nor catalog, constructions, drums or spectral
    stages = loaded_after("""
        run(["verify", "psl32.spec"])
        check("verify")
        run(["scan", "--spec", "psl32c.spec", "--nmax", "7", "--outdir", "census"])
        check("scan")
    """, specs)
    assert loaded(stages["verify"]) == set()
    assert loaded(stages["scan"]) == set()


def test_construct_loads_constructions_only(specs):
    stages = loaded_after("""
        run(["construct", "--spec", "psl32c.spec", "--type", "1", "--n", "2",
             "--top-degree", "2", "--top-gens", "[(1 2)]", "--out", "w1.spec"])
        check("construct")
    """, specs)
    assert loaded(stages["construct"]) == {"isodrum.constructions"}


def test_spectrum_loads_scipy(tmp_path):
    (tmp_path / "tri.ivs").write_text("tiles: 1\nsides: 3\nside 1: ; boundary: 1\n"
                                      "side 2: ; boundary: 1\nside 3: ; boundary: 1\n")
    stages = loaded_after("""
        run(["unfold", "--system", "tri.ivs", "--json", "tri.json"])
        check("unfold")
        run(["spectrum", "--domain", "tri.json", "--k", "3", "--h", "1/16"])
        check("spectrum")
    """, tmp_path)
    assert "isodrum.drums" in loaded(stages["unfold"])
    assert not loaded(stages["unfold"]) & {"scipy", "isodrum.catalog", "isodrum.constructions"}
    assert stages["spectrum"]["scipy"] is True


def test_gww_loads_the_modules_it_runs(tmp_path):
    stages = loaded_after("""
        run(["gww", "--outdir", "gww", "--k", "3", "--h", "1/16"])
        check("gww")
    """, tmp_path)
    # gww builds no wreath construction
    assert loaded(stages["gww"]) & set(DEFERRED) == set(DEFERRED) - {"isodrum.constructions"}
    assert stages["gww"]["scipy"] is True


def test_deferred_modules_are_the_package_modules(tmp_path):
    # imported before the CLI or registered by it, each is one module object,
    # reachable as a package attribute; a registered one runs on first use
    loaded_after("""
        from isodrum import drums as early
        import isodrum, isodrum.cli
        assert isodrum.cli.drums is early and isodrum.drums is early
        lazy = sys.modules["isodrum.constructions"]
        assert lazy is isodrum.cli.constructions is isodrum.constructions
        assert type(lazy) is not types.ModuleType
        from isodrum.constructions import type1
        assert type(lazy) is types.ModuleType and lazy.type1 is type1
    """, tmp_path)
