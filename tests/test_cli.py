import json
import os

import pytest

from isodrum.cli import main
from isodrum.errors import SettingError
from isodrum.limits import ENUMERATION_BOUND, enumeration_bound
from isodrum.specio import format_triple_spec, parse_triple_spec


@pytest.fixture(scope="module")
def specdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    rc = main(["catalog", "emit", "--nq", "3,2", "--out", str(d / "psl32.spec")])
    assert rc == 0
    rc = main(["catalog", "emit", "--nq", "3,2", "--compress", "--out", str(d / "psl32c.spec")])
    assert rc == 0
    return d


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "(3,2): order 168" in out


def test_verify_flagship(specdir, capsys):
    rc = main(["verify", str(specdir / "psl32.spec")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "AC:   true" in out and "PAIR: confirmed" in out and "INV:  found" in out


def test_verify_json_schema(specdir, capsys):
    rc = main(["verify", str(specdir / "psl32.spec"), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["schema"] == 1 and data["ac"] is True and data["pair"] == "confirmed"


def test_verify_failing_property(tmp_path, capsys, a4_triple):
    path = tmp_path / "a4.spec"
    path.write_text(format_triple_spec(a4_triple))
    rc = main(["verify", str(path), "--props", "ac"])
    assert rc == 1
    rc = main(["verify", str(path), "--props", "ec"])
    assert rc == 0


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("degree: 3\ngenerators: [(1 2 ]\nH: []\nK: []\n")
    assert main(["verify", str(bad)]) == 2
    assert main(["verify", str(tmp_path / "missing.spec")]) == 2


def test_verify_bound_exceeded(specdir, capsys):
    os.environ["GF_BOUND"] = "10"
    try:
        rc = main(["verify", str(specdir / "psl32.spec")])
    finally:
        del os.environ["GF_BOUND"]
    assert rc == 3


def test_verify_bound_hit_in_inv_exits_3(specdir, tmp_path, capsys, monkeypatch):
    # without a pair candidate PAIR lists nothing, and AC..MAX list no
    # elements, so the first listing is INV's: H's 24 elements, over the
    # bound; no "INV:  none" may be reported
    spec = tmp_path / "psl32_nopair.spec"
    spec.write_text("".join(line for line in (specdir / "psl32.spec").read_text().splitlines(True)
                            if not line.startswith("pair:")))
    monkeypatch.setenv("GF_BOUND", "20")
    rc = main(["verify", str(spec)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "resource bound exceeded: group order 24 exceeds bound 20\n"
    assert "INV:" not in captured.out


def test_verify_props_skip_pair_and_inv(specdir, capsys, monkeypatch):
    # AC, EC, FF and MAX list no elements on this AC triple; PAIR and INV,
    # which list H (24 elements), run only when requested
    monkeypatch.setenv("GF_BOUND", "20")
    spec = str(specdir / "psl32.spec")
    rc = main(["verify", spec, "--props", "ac,ec,ff,max"])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert "PAIR: not checked" in captured.out and "INV:  not checked" in captured.out
    rc = main(["verify", spec, "--props", "ac,ec,ff,max", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["pair"] == data["inv"] == "not checked"
    rc = main(["verify", spec, "--props", "ac,pair"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == "resource bound exceeded: group order 24 exceeds bound 20\n"


def test_verify_inv_within_bound_lists_h_and_closure(specdir, capsys, monkeypatch):
    # INV lists H (24 elements) and the closure of its involutions (21), not
    # G (168), so a bound of 100 proves INV
    monkeypatch.setenv("GF_BOUND", "100")
    rc = main(["verify", str(specdir / "psl32.spec")])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert "INV:  found" in captured.out


@pytest.mark.parametrize("value", ["abc", "-5", "0", "", "1.5"])
def test_verify_rejects_bad_gf_bound(specdir, capsys, monkeypatch, value):
    # a malformed or non-positive bound is a one-line error, not a traceback
    # and not a "bound exceeded" report
    monkeypatch.setenv("GF_BOUND", value)
    rc = main(["verify", str(specdir / "psl32.spec")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith("setting error: GF_BOUND must be a positive integer")
    assert repr(value) in err


def test_enumeration_bound_reads_gf_bound(monkeypatch):
    monkeypatch.setenv("GF_BOUND", "1")
    assert enumeration_bound() == 1
    monkeypatch.setenv("GF_BOUND", "-5")
    with pytest.raises(SettingError, match="'-5'"):
        enumeration_bound()
    monkeypatch.delenv("GF_BOUND")
    assert enumeration_bound() == ENUMERATION_BOUND


def test_construct_type1_flags(specdir, tmp_path, capsys):
    out = tmp_path / "t1.spec"
    rc = main([
        "construct", "--spec", str(specdir / "psl32c.spec"), "--type", "1",
        "--n", "2", "--top-degree", "2", "--top-gens", "[(1 2)]",
        "--out", str(out),
    ])
    assert rc == 0
    built, _, _ = parse_triple_spec(out.read_text())
    assert built.G.order == 56448 and built.H.order == 1152
    assert built.G.degree == 14


def test_verify_type1_wreath_proves_inv_false(specdir, tmp_path, capsys):
    # 651 candidate involutions fix 7, 9 or 21 of the 49 cosets; the forest
    # search exhausts them with no tree system, well inside the node bound
    out = tmp_path / "t1.spec"
    assert main([
        "construct", "--spec", str(specdir / "psl32c.spec"), "--type", "1",
        "--n", "2", "--top-degree", "2", "--top-gens", "[(1 2)]",
        "--out", str(out),
    ]) == 0
    capsys.readouterr()
    rc = main(["verify", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    assert "INV:  none" in captured.out.splitlines()


def test_construct_stanza_in_file(specdir, tmp_path):
    base_text = (specdir / "psl32c.spec").read_text()
    spec = tmp_path / "with_stanza.spec"
    spec.write_text(base_text + "construct:\nvariant: 1\nn: 2\nT_degree: 2\nT_generators: [(1 2)]\n")
    out = tmp_path / "t1b.spec"
    assert main(["construct", "--spec", str(spec), "--out", str(out)]) == 0
    built, _, _ = parse_triple_spec(out.read_text())
    assert built.G.order == 56448


def test_construct_rejects_repeated_stanza_key(specdir, tmp_path, capsys):
    base_text = (specdir / "psl32c.spec").read_text()
    spec = tmp_path / "repeated.spec"
    spec.write_text(base_text + "construct:\nvariant: 1\nn: 2\nn: 3\nT_degree: 2\n"
                    "T_generators: [(1 2)]\n")
    out = tmp_path / "never.spec"
    assert main(["construct", "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "parse error: repeated construct key 'n'\n")
    assert not out.exists()


def test_construct_degenerate_round_trip(specdir, tmp_path, capsys):
    # type 1 with n = 1 and trivial top returns the base triple byte-identically
    out = tmp_path / "same.spec"
    rc = main([
        "construct", "--spec", str(specdir / "psl32c.spec"), "--type", "1",
        "--n", "1", "--top-degree", "1", "--top-gens", "[]",
        "--out", str(out),
    ])
    assert rc == 0
    assert out.read_text() == (specdir / "psl32c.spec").read_text()


def test_construct_type3_l1_rejected(specdir, tmp_path):
    rc = main([
        "construct", "--spec", str(specdir / "psl32c.spec"), "--type", "3",
        "--l", "1", "--k", "2", "--top-degree", "2", "--top-gens", "[(1 2)]",
        "--out", str(tmp_path / "x.spec"),
    ])
    assert rc == 2


def test_gww_pipeline_and_downstream(tmp_path, capsys):
    outdir = tmp_path / "gww"
    rc = main(["gww", "--outdir", str(outdir), "--h", "1/32", "--tol", "0.02"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    for name in ("gww_a.ivs", "gww_b.ivs", "gww_a.svg", "gww_b.svg", "gww_a.json", "gww_b.json"):
        assert (outdir / name).exists()
    # transplant on the emitted systems
    rc = main(["transplant", "--a", str(outdir / "gww_a.ivs"), "--b", str(outdir / "gww_b.ivs")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "invertible intertwiner: yes" in out
    assert "permutation intertwiner: none" in out
    # spectrum table
    rc = main(["spectrum", "--domain", str(outdir / "gww_a.json"), "--k", "3", "--h", "1/16"])
    out = capsys.readouterr().out
    assert rc == 0 and "lambda_1" in out
    # compare
    rc = main(["spectrum-compare", "--a", str(outdir / "gww_a.json"),
               "--b", str(outdir / "gww_b.json"), "--k", "3", "--h", "1/16", "--tol", "0.02"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS" in out


def test_unfold_command(tmp_path, capsys):
    sys_text = (
        "tiles: 2\nsides: 3\n"
        "side 1: (1 2) ; boundary:\n"
        "side 2: ; boundary: 1 2\n"
        "side 3: ; boundary: 1 2\n"
    )
    path = tmp_path / "pair.ivs"
    path.write_text(sys_text)
    svg = tmp_path / "pair.svg"
    jsn = tmp_path / "pair.json"
    rc = main(["unfold", "--system", str(path), "--svg", str(svg), "--json", str(jsn)])
    out = capsys.readouterr().out
    assert rc == 0
    assert svg.exists() and jsn.exists()
    assert "area: 1" in out


def test_unfold_slit_domain_fails(specdir, tmp_path, capsys):
    # the second pair of the psl(3,2) census unfolds without overlap but with
    # a slit: no exact boundary, so no clean drum and no JSON
    assert main(["scan", "--spec", str(specdir / "psl32c.spec"), "--nmax", "7",
                 "--outdir", str(tmp_path)]) == 0
    system, jsn = str(tmp_path / "pair001a.ivs"), tmp_path / "slit.json"
    capsys.readouterr()
    assert main(["unfold", "--system", system, "--json", str(jsn)]) == 1
    out = capsys.readouterr().out
    assert "overlap: False" in out and "(slit)" in out
    assert "no exact boundary; skipping JSON export" in out and not jsn.exists()
    assert main(["unfold", "--system", system]) == 1
    # the drawing holds the tiles, with no boundary outline to draw
    svg = tmp_path / "slit.svg"
    assert main(["unfold", "--system", system, "--svg", str(svg)]) == 1
    assert f"wrote {svg}" in capsys.readouterr().out
    assert svg.read_text().count("<polygon") == 7
    assert main(["unfold", "--system", str(tmp_path / "pair000a.ivs"), "--json", str(jsn)]) == 0
    assert jsn.exists()


def test_construct_type2_and_type3_via_files(tmp_path, capsys, a5_group):
    from isodrum.constructions import diagonal_subgroup, _direct_power_group
    from isodrum.triples import Triple

    G2 = _direct_power_group(a5_group, 2)
    diag = diagonal_subgroup(a5_group, 2)
    base = Triple(G2, diag, diag, label="a5 squared with diagonals")
    spec2 = tmp_path / "t2base.spec"
    spec2.write_text(
        format_triple_spec(base)
        + "construct:\nvariant: 2\nn: 2\nT_degree: 2\nT_generators: [(1 2)]\n")
    out2 = tmp_path / "t2.spec"
    assert main(["construct", "--spec", str(spec2), "--out", str(out2)]) == 0
    built, _, _ = parse_triple_spec(out2.read_text())
    assert built.G.order == 60**2 * 2 and built.H.order == 120
    # verify the constructed file end to end (skip INV to stay quick)
    rc = main(["verify", str(out2), "--props", "ec,ff,max"])
    assert rc == 0

    spec3 = tmp_path / "t3base.spec"
    spec3.write_text(
        format_triple_spec(base)
        + "construct:\nvariant: 3\nl: 2\nk: 2\nT_degree: 4\n"
        + "T_generators: [(1 2), (3 4), (1 3)(2 4)]\n")
    out3 = tmp_path / "t3.spec"
    assert main(["construct", "--spec", str(spec3), "--out", str(out3)]) == 0
    built3, _, _ = parse_triple_spec(out3.read_text())
    assert built3.G.order == 60**4 * 8 and built3.H.order == 60**2 * 8


def test_verify_repeated_subgroup_lines(tmp_path, capsys, a5_group):
    # K: parsed as H itself, or as an equal group in other words, gives one report
    from isodrum.constructions import diagonal_subgroup, _direct_power_group
    from isodrum.triples import Triple

    diag = diagonal_subgroup(a5_group, 2)
    text = format_triple_spec(Triple(_direct_power_group(a5_group, 2), diag, diag, label="a5sq"))
    k_line = next(line for line in text.splitlines() if line.startswith("K: "))
    gens = k_line[len("K: ["):-1].split(", ")
    reordered = text.replace(k_line, "K: [" + ", ".join(reversed(gens)) + "]")
    assert reordered != text
    reports = []
    for name, body in (("same.spec", text), ("reordered.spec", reordered)):
        (tmp_path / name).write_text(body)
        rc = main(["verify", str(tmp_path / name), "--json"])
        reports.append((rc, capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0][1])["ec"] is True


def test_construct_refuses_a_twisted_type3(tmp_path, capsys, twisted_type3):
    # the top group carries block 0's diagonal to a different diagonal on
    # block 1, so the subgroup it generates is not L^2 : T
    spec = tmp_path / "twisted.spec"
    spec.write_text(format_triple_spec(twisted_type3.base_triple))
    out = tmp_path / "w.spec"
    rc = main(["construct", "--spec", str(spec), "--type", "3", "--l", "2", "--k", "3",
               "--top-degree", "6", "--top-gens", "[(1 2 3)(4 5 6), (1 4)(2 6)(3 5)]",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "construct: top group twists the diagonals between blocks\n"
    assert captured.out == "" and not out.exists()


def test_construct_type2_on_compressed_base_is_invalid_input(tmp_path, capsys, a5_group):
    # compressing (A5 x A5, diag, diag) leaves the 60 cosets of the diagonal,
    # which carry no block system of 5-point blocks for type 2 to restrict to
    from isodrum.constructions import diagonal_subgroup, _direct_power_group
    from isodrum.triples import Triple

    diag = diagonal_subgroup(a5_group, 2)
    spec = tmp_path / "a5sq.spec"
    spec.write_text(format_triple_spec(Triple(_direct_power_group(a5_group, 2), diag, diag)))
    rc = main(["construct", "--spec", str(spec), "--type", "2", "--n", "2",
               "--top-degree", "2", "--top-gens", "[(1 2)]", "--compress-base"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "construct: group does not preserve the block\n"
    assert captured.out == ""


def test_construct_bound_caps_the_simple_factor(tmp_path, capsys, monkeypatch, a5_group):
    # type 2 lists the simple factor A5 (60 elements) for its classes, so
    # GF_BOUND caps construct as it caps verify and scan
    from isodrum.constructions import diagonal_subgroup, _direct_power_group
    from isodrum.triples import Triple

    diag = diagonal_subgroup(a5_group, 2)
    spec = tmp_path / "a5sq.spec"
    spec.write_text(format_triple_spec(Triple(_direct_power_group(a5_group, 2), diag, diag)))
    argv = ["construct", "--spec", str(spec), "--type", "2", "--n", "2",
            "--top-degree", "2", "--top-gens", "[(1 2)]"]
    monkeypatch.setenv("GF_BOUND", "20")
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "resource bound exceeded: group order 60 exceeds bound 20\n"
    assert captured.out == ""
    monkeypatch.setenv("GF_BOUND", "60")
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_no_bound_option(specdir, capsys):
    # GF_BOUND is the one setting of the enumeration bound: a --bound option
    # is a rejected command line, one argparse line and exit 2
    psl32 = str(specdir / "psl32.spec")
    for argv in (["verify", psl32], ["scan", "--spec", psl32, "--nmax", "7"],
                 ["construct", "--spec", psl32, "--type", "1", "--n", "1",
                  "--top-degree", "1", "--top-gens", "[]"]):
        assert main(argv + ["--bound", "5"]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: unrecognized arguments: --bound 5\n"), argv
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_verify_type3_decides_ac(tmp_path, capsys, a5_group):
    # |G| = 60^4 * 8 is far above the enumeration bound; AC is three
    # double-coset counts on the index-3600 coset tables
    from isodrum.constructions import diagonal_subgroup, _direct_power_group
    from isodrum.triples import Triple

    diag = diagonal_subgroup(a5_group, 2)
    spec = tmp_path / "a5sq.spec"
    spec.write_text(format_triple_spec(Triple(_direct_power_group(a5_group, 2), diag, diag)))
    out = tmp_path / "t3.spec"
    assert main(["construct", "--spec", str(spec), "--type", "3", "--l", "2", "--k", "2",
                 "--top-degree", "4", "--top-gens", "[(1 2), (3 4), (1 3)(2 4)]",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["verify", str(out), "--props", "ac,ec,ff,max", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["ac"] is True and data["ec"] and data["ff"] and data["max"]


GOLDEN_A = (
    "tiles: 7\nsides: 3\n"
    "side 1: (3 4) (5 7) ; boundary: 1 2 6\n"
    "side 2: (2 3) (6 7) ; boundary: 1 4 5\n"
    "side 3: (1 2) (4 7) ; boundary: 3 5 6\n"
)
GOLDEN_B = (
    "tiles: 7\nsides: 3\n"
    "side 1: (2 4) (6 7) ; boundary: 1 3 5\n"
    "side 2: (3 4) (5 6) ; boundary: 1 2 7\n"
    "side 3: (1 4) (2 5) ; boundary: 3 6 7\n"
)


def test_gww_artifacts_deterministic(tmp_path, capsys):
    # reproducible reports are part of the contract: two runs give identical
    # bytes, and the chosen witness is pinned as a golden value
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["gww", "--outdir", str(d1), "--h", "1/16", "--k", "3"]) == 0
    assert main(["gww", "--outdir", str(d2), "--h", "1/16", "--k", "3"]) == 0
    capsys.readouterr()
    for name in ("gww_a.ivs", "gww_b.ivs", "gww_a.json", "gww_b.json", "gww_a.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert (d1 / "gww_a.ivs").read_text() == GOLDEN_A
    assert (d1 / "gww_b.ivs").read_text() == GOLDEN_B


def test_scan_command(tmp_path, capsys, psl32):
    spec = tmp_path / "psl.spec"
    spec.write_text(format_triple_spec(psl32))
    outdir = tmp_path / "scanout"
    rc = main(["scan", "--spec", str(spec), "--nmax", "7", "--outdir", str(outdir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "found 14" in out
    assert len(list(outdir.iterdir())) == 28


def test_scan_bound_caps_h_and_the_closure(specdir, capsys, monkeypatch):
    # the census lists H (24 elements) and closes its involutions (21),
    # never G (168)
    monkeypatch.setenv("GF_BOUND", "100")
    assert main(["scan", "--spec", str(specdir / "psl32.spec"), "--nmax", "7"]) == 0
    assert "found 14" in capsys.readouterr().out
    monkeypatch.setenv("GF_BOUND", "20")
    assert main(["scan", "--spec", str(specdir / "psl32.spec"), "--nmax", "7"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "resource bound exceeded: group order 24 exceeds bound 20\n"
    assert "found" not in captured.out


def test_invalid_verify_and_scan_input_exits_2(specdir, tmp_path, capsys):
    # exit 1 means a checked property fails; too few sides, a census on
    # subgroups of different indices or a pair candidate that is no
    # automorphism is invalid input: one stderr line, exit 2
    psl32, psl32c = specdir / "psl32.spec", specdir / "psl32c.spec"

    def edited(path, key, value):
        out = tmp_path / f"{key}.spec"
        out.write_text("".join(f"{key}: {value}\n" if line.startswith(f"{key}:") else line
                               for line in path.read_text().splitlines(keepends=True)))
        return str(out)

    cases = [
        (["scan", "--spec", str(psl32c), "--nmax", "7", "--r", "2"], "scan: need at least 3 sides"),
        (["verify", str(psl32), "--sides", "2"], "verify: need at least 3 sides"),
        (["scan", "--spec", edited(psl32c, "K", "[]"), "--nmax", "7"],
         "scan: coset spaces have different sizes"),
        (["verify", edited(psl32, "pair", "[(1 2), (1 2)]")],
         "verify: image is not a member of the group"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")
    assert main(["verify", str(psl32), "--sides", "2", "--props", "ac,ec,ff,max"]) == 0


def test_invalid_cli_input_exits_2(tmp_path, capsys):
    # exit 1 means a checked property fails; a rejected command line or an
    # input the command cannot work on is invalid input: one stderr line,
    # no traceback, exit 2
    gww_a = tmp_path / "gww_a.ivs"
    gww_a.write_text(GOLDEN_A)
    three = tmp_path / "three.ivs"
    three.write_text("tiles: 3\nsides: 3\nside 1: (1 2) ; boundary: 3\n"
                     "side 2: (2 3) ; boundary: 1\nside 3: ; boundary: 1 2 3\n")
    cycle = tmp_path / "cycle.ivs"
    cycle.write_text("tiles: 3\nsides: 3\nside 1: (1 2) ; boundary: 3\n"
                     "side 2: (2 3) ; boundary: 1\nside 3: (1 3) ; boundary: 2\n")
    domain = tmp_path / "a.json"
    assert main(["unfold", "--system", str(gww_a), "--json", str(domain)]) == 0
    data = json.loads(domain.read_text())
    data["lattice"] = [[[1, 1], [1, 2]], [[1, 2], [1, 1]]]  # as once written for 60-degree tiles
    bad_lattice = tmp_path / "bad.json"
    bad_lattice.write_text(json.dumps(data))
    capsys.readouterr()
    spectrum, compare = ["spectrum", "--domain", str(domain)], [
        "spectrum-compare", "--a", str(domain), "--b", str(domain)]
    cases = [
        (["transplant", "--a", str(gww_a), "--b", str(three)],
         "transplant: dimension mismatch between systems"),
        (["unfold", "--system", str(gww_a), "--tile", "half-square"],
         "unrecognized arguments: --tile half-square"),
        (["gww", "--tile", "half-square"], "unrecognized arguments: --tile half-square"),
        (["unfold", "--system", str(cycle)], "unfold: system is not a tree; unfolding undefined"),
        (spectrum + ["--h", "0"], "spacing must be positive: '0'"),
        (spectrum + ["--h", "abc"], "not a rational number: 'abc'"),
        (spectrum + ["--k", "0"], "must be at least 1: '0'"),
        (compare + ["--h", "0"], "spacing must be positive: '0'"),
        (compare + ["--h", "abc"], "not a rational number: 'abc'"),
        (compare + ["--k", "0"], "must be at least 1: '0'"),
        (["gww", "--h", "0"], "spacing must be positive: '0'"),
        (["gww", "--h", "abc"], "not a rational number: 'abc'"),
        (["gww", "--k", "0"], "must be at least 1: '0'"),
        (spectrum + ["--k", "100000"], "spectrum: need 1 <= k <= 14049 occupied nodes"),
        (["spectrum", "--domain", str(bad_lattice)],
         "parse error: bad domain json: a lattice field; coordinates must be Cartesian"),
        (["catalog", "emit", "--nq", "5,5"], "catalog: unsupported field size 5"),
        (["catalog", "emit", "--nq", "1,2"], "catalog: unsupported dimension 1"),
        (["catalog", "emit", "--nq", "abc"], "not two integers n,q: 'abc'"),
        (["catalog", "emit", "--nq", "3"], "not two integers n,q: '3'"),
        (["catalog", "emit", "--nq", "3,2,1"], "not two integers n,q: '3,2,1'"),
    ]
    for argv, message in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv


@pytest.mark.parametrize("command", ["verify", "catalog emit", "gww", "scan"])
def test_unusable_path_exits_2(command, specdir, tmp_path, capsys):
    # a directory where a file is read or written, or a file where an output
    # directory goes, is invalid input like a missing file: one line, exit 2,
    # found before any work, so no stage or result is printed
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = {
        "verify": ["verify", str(tmp_path)],
        "catalog emit": ["catalog", "emit", "--nq", "3,2", "--out", str(tmp_path)],
        "gww": ["gww", "--outdir", str(taken)],
        "scan": ["scan", "--spec", str(specdir / "psl32c.spec"), "--nmax", "7",
                 "--outdir", str(taken)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("file error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


GWW_A = """tiles: 7
sides: 3
side 1: (3 4) (5 7) ; boundary: 1 2 6
side 2: (2 3) (6 7) ; boundary: 1 4 5
side 3: (1 2) (4 7) ; boundary: 3 5 6
"""

KLEIN = """tiles: 4
sides: 3
side 1: (1 2) (3 4) ; boundary:
side 2: (1 3) (2 4) ; boundary:
side 3: (1 4) (2 3) ; boundary:
"""


@pytest.mark.parametrize("a, b, dimension, isometry", [
    # gww's side a, and the same with tile i renamed 3i mod 7 (tile 7 kept):
    # a tree system has no automorphism, so this is the only isometry
    (GWW_A, """tiles: 7
sides: 3
side 1: (1 7) (2 5) ; boundary: 3 4 6
side 2: (2 6) (4 7) ; boundary: 1 3 5
side 3: (3 6) (5 7) ; boundary: 1 2 4
""", 2, "(1 3 2 6 4 5)"),
    (GWW_A, GWW_A, 2, "()"),
    # the Klein group on itself by right multiplication, and the same with
    # tiles 1, 2, 3, 4 renamed 3, 1, 4, 2: four isometries, one per image of
    # tile 1, and the one printed fixes tile 1, the least image
    (KLEIN, """tiles: 4
sides: 3
side 1: (1 3) (2 4) ; boundary:
side 2: (1 2) (3 4) ; boundary:
side 3: (1 4) (2 3) ; boundary:
""", 4, "(2 3)"),
])
def test_transplant_prints_the_isometry_of_least_image(a, b, dimension, isometry, tmp_path,
                                                       capsys):
    (tmp_path / "a.ivs").write_text(a)
    (tmp_path / "b.ivs").write_text(b)
    assert main(["transplant", "--a", str(tmp_path / "a.ivs"), "--b", str(tmp_path / "b.ivs")]) == 0
    assert capsys.readouterr().out == (
        f"{a.splitlines()[0]}\nsolution space dimension: {dimension}\n"
        f"invertible intertwiner: yes (basis[0])\npermutation intertwiner: {isometry}\n")
