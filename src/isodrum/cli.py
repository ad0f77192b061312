"""Command-line interface.

Subcommands: verify, construct, transplant, unfold, spectrum,
spectrum-compare, catalog, scan, gww.  Exit codes: 0 success / property
holds, 1 a checked property fails (for unfold: the domain overlaps itself or
has no exact boundary, such as a slit), 2 invalid input (a command line
argparse rejects, such as a spacing h that is not a positive rational, a k
that is not a positive integer or an --nq that is not two integers; a
dimension or field size the catalog cannot build; a path that cannot be
read or written; a spec, system or domain file that does not parse; a
GF_BOUND that is not a positive integer; a construction whose hypotheses
fail on the given base; fewer than 3 sides for INV or the census; a census
on subgroups of different indices; two systems of different sizes for
transplant; a system with a cycle for unfold; or fewer than k interior nodes
at h), 3 a resource bound was exceeded.
GF_BOUND in the environment is the one setting of the enumeration bound
(``limits``); no subcommand takes a bound option.

Importing this module runs the exact core only; catalog, constructions,
drums and spectral are lazy imports, run by the first command that uses them
(verify, scan and transplant use none), and scipy by the first eigensolve.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from fractions import Fraction

from .errors import BoundExceeded, SettingError, SpecFormatError
from .groups import left_cosets
from .permutations import format_cycles
from .specio import (
    construction_from_stanza,
    format_triple_spec,
    parse_triple_spec,
)
from .transplant import (
    InvolutionSystem,
    find_transplantation,
    format_involution_system,
    is_tree,
    okada_shudo_scan,
    parse_involution_system,
    verify_intertwiner,
)
from .triples import PROPERTIES, compress, inv_witnesses, is_ac, property_report


def _deferred(name: str):
    """The submodule ``name``, executed on its first attribute access.  It is
    in sys.modules from the start, so every importer gets this one object and
    code that wraps the package's functions in place finds it."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


catalog, constructions, drums, spectral = map(
    _deferred, ("catalog", "constructions", "drums", "spectral"))


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _spacing(text: str) -> Fraction:
    try:
        h = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if h <= 0:
        raise argparse.ArgumentTypeError(f"spacing must be positive: {text!r}")
    return h


def _positive_int(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if k < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return k


def _nq(text: str) -> tuple[int, int]:
    try:
        n, q = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not two integers n,q: {text!r}") from None
    return n, q


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line on one stderr line and exits 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _spectra(polys, args):
    """The k smallest eigenvalues of each boundary polygon at spacing h;
    ValueError when a mask has fewer than k nodes."""
    return [spectral.dirichlet_eigenvalues(spectral.rasterize(poly, args.h), args.k,
                                          seed=args.seed)
            for poly in polys]


def cmd_verify(args) -> int:
    triple, pair, _ = parse_triple_spec(_read(args.spec))
    requested = [p.strip() for p in args.props.split(",")] if args.props else list(PROPERTIES)
    unknown = set(requested) - set(PROPERTIES)
    if unknown:
        raise SpecFormatError(f"unknown properties: {sorted(unknown)}")
    try:
        report = property_report(triple, pair_candidate=pair, r=args.sides, props=requested)
    except ValueError as exc:  # too few sides, or a pair candidate that is no automorphism
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        if triple.label:
            print(f"triple: {triple.label}")
        print(f"|G| = {triple.G.order}, |H| = {triple.H.order}, |K| = {triple.K.order}")
        for line in report.lines():
            print(line)
    return 0 if report.holds(requested) else 1


def cmd_catalog(args) -> int:
    if args.action == "list":
        for n, q in catalog.SUPPORTED:
            order = catalog.psl_order(n, q)
            pts = (q**n - 1) // (q - 1)
            print(f"({n},{q}): order {order}, index {pts}, degree {2 * pts}")
        return 0
    n, q = args.nq
    try:
        triple = catalog.psl_triple(n, q)
    except ValueError as exc:  # a dimension or field size the catalog cannot build
        print(f"catalog: {exc}", file=sys.stderr)
        return 2
    pair = catalog.duality_automorphism(n, q)
    if args.compress:
        table = left_cosets(triple.G, triple.H)
        pair = [table.action_of(c) for c in pair]
        triple = compress(triple)
    text = format_triple_spec(triple, pair_candidate=pair)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_construct(args) -> int:
    base, base_pair, stanza = parse_triple_spec(_read(args.spec))
    if stanza is None:
        if args.type is None:
            raise SpecFormatError("no construct stanza in file and no --type given")
        stanza = {"variant": str(args.type)}
        if args.n is not None:
            stanza["n"] = str(args.n)
        if args.l is not None:
            stanza["l"] = str(args.l)
        if args.k is not None:
            stanza["k"] = str(args.k)
        if args.top_degree is None or args.top_gens is None:
            raise SpecFormatError("need --top-degree and --top-gens for the top group")
        stanza["T_degree"] = str(args.top_degree)
        stanza["T_generators"] = args.top_gens
    elif args.type is not None and int(stanza.get("variant", 0)) != args.type:
        raise SpecFormatError("--type disagrees with the construct stanza")
    try:
        if args.compress_base:
            base = compress(base)
        data = construction_from_stanza(base, stanza)
        build = {1: constructions.type1, 2: constructions.type2, 3: constructions.type3}
        result = build[data.variant](data)
    except SpecFormatError:
        raise
    except ValueError as exc:  # a construction hypothesis fails on this base
        print(f"construct: {exc}", file=sys.stderr)
        return 2
    # a degenerate construction hands the base back, pair candidate included
    text = format_triple_spec(result, pair_candidate=base_pair if result is base else None)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} (|G| = {result.G.order}, |H| = {result.H.order}, "
              f"|K| = {result.K.order}, degree {result.G.degree})")
    else:
        print(text, end="")
    return 0


def cmd_transplant(args) -> int:
    A = parse_involution_system(_read(args.a))
    B = parse_involution_system(_read(args.b))
    try:
        sol = find_transplantation(A, B)
    except ValueError as exc:  # different tile or side counts
        print(f"transplant: {exc}", file=sys.stderr)
        return 2
    iso = None if sol is None else sol.permutation_solution  # a zero space holds no permutation
    out = {
        "schema": 1,
        "tiles": A.n_tiles,
        "solution_dimension": 0 if sol is None else sol.dimension(),
        "invertible": bool(sol and sol.invertible),
        "certificate": "" if sol is None else sol.certificate,
        "permutation_solution": None if iso is None else format_cycles(iso, one_based=True),
    }
    if args.json:
        print(json.dumps(out, indent=1))
    else:
        print(f"tiles: {out['tiles']}")
        print(f"solution space dimension: {out['solution_dimension']}")
        print(f"invertible intertwiner: {'yes' if out['invertible'] else 'no'} ({out['certificate']})")
        print(f"permutation intertwiner: {out['permutation_solution'] or 'none'}")
    if sol and sol.invertible:
        assert verify_intertwiner(sol.T, A, B)
        return 0
    return 1


def cmd_unfold(args) -> int:
    sys_ = parse_involution_system(_read(args.system))
    try:
        domain = drums.unfold(sys_, drums.BaseTile.half_square())
    except ValueError as exc:  # the gluing graph has a cycle
        print(f"unfold: {exc}", file=sys.stderr)
        return 2
    print(f"tiles: {domain.n_tiles}, overlap: {domain.overlap_flag}")
    boundary = None
    if not domain.overlap_flag:
        try:
            boundary = drums.boundary_polygon(domain)
            print(f"boundary vertices: {len(boundary)}, area: {domain.total_area()}")
        except ValueError as exc:
            print(f"boundary: {exc}")
    if args.svg:
        drums.export_svg(domain, args.svg, boundary)
        print(f"wrote {args.svg}")
    if args.json_out:
        if boundary is None:
            print("no exact boundary; skipping JSON export")
        else:
            drums.export_json(domain, args.json_out, boundary)
            print(f"wrote {args.json_out}")
    return 0 if boundary is not None else 1


def cmd_spectrum(args) -> int:
    _, boundary = drums.load_domain_json(args.domain)
    if boundary is None:
        raise SpecFormatError("domain json has no boundary polygon")
    try:
        mask = spectral.rasterize(boundary, args.h)
        res = spectral.dirichlet_eigenvalues(mask, args.k, seed=args.seed)
    except ValueError as exc:  # a degenerate polygon, or fewer than k interior nodes
        print(f"spectrum: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({"schema": 1, "h": str(res.h), "eigenvalues": res.eigenvalues}, indent=1))
    else:
        print(f"h = {res.h}, interior nodes = {mask.occupied_count}")
        for i, ev in enumerate(res.eigenvalues, 1):
            print(f"  lambda_{i:<2d} = {ev:.6f}")
    return 0


def cmd_spectrum_compare(args) -> int:
    _, pa = drums.load_domain_json(args.a)
    _, pb = drums.load_domain_json(args.b)
    if pa is None or pb is None:
        raise SpecFormatError("domain json has no boundary polygon")
    try:
        ra, rb = _spectra([pa, pb], args)
    except ValueError as exc:  # fewer than k interior nodes
        print(f"spectrum-compare: {exc}", file=sys.stderr)
        return 2
    gaps = spectral.pairwise_relative_gaps(ra, rb)
    for i, (x, y, g) in enumerate(zip(ra.eigenvalues, rb.eigenvalues, gaps), 1):
        print(f"  lambda_{i:<2d}: {x:12.6f} {y:12.6f}  gap {g:.2e}")
    ok = max(gaps) <= args.tol
    print(f"{'PASS' if ok else 'FAIL'}: max relative gap {max(gaps):.2e} "
          f"{'<=' if ok else '>'} tolerance {args.tol}")
    return 0 if ok else 1


def cmd_scan(args) -> int:
    triple, _, _ = parse_triple_spec(_read(args.spec))
    try:
        pairs = okada_shudo_scan(triple, args.nmax, args.r)
    except ValueError as exc:  # too few sides, or H and K of different indices
        print(f"scan: {exc}", file=sys.stderr)
        return 2
    print(f"found {len(pairs)} transplantable nonisometric pair(s)")
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        for i, (a, b) in enumerate(pairs):
            for side, sys_ in (("a", a), ("b", b)):
                path = os.path.join(args.outdir, f"pair{i:03d}{side}.ivs")
                with open(path, "w") as fh:
                    fh.write(format_involution_system(sys_))
        print(f"wrote {2 * len(pairs)} system files to {args.outdir}")
    return 0 if pairs else 1


def cmd_gww(args) -> int:
    """End-to-end flagship pipeline, deterministic throughout."""
    report = {"schema": 1, "stages": {}}

    def stage(name, value):
        report["stages"][name] = value
        if not args.json:
            print(f"{name}: {value}")

    triple = catalog.psl_triple(3, 2)
    ac = is_ac(triple)
    stage("catalog", f"psl(3,2): |G| = {triple.G.order}, index {triple.G.order // triple.H.order}")
    stage("ac", ac)
    if not ac:
        print("ABORT at stage ac")
        return 1
    tile = drums.BaseTile.half_square()
    table_k = left_cosets(triple.G, triple.K)
    chosen = None
    for gs, sys_a in inv_witnesses(triple, 3):
        sys_b = InvolutionSystem(len(table_k), 3, tuple(table_k.action_of(g) for g in gs))
        for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            a2, b2 = sys_a.permute_colors(order), sys_b.permute_colors(order)
            da, db = drums.unfold(a2, tile), drums.unfold(b2, tile)
            if da.overlap_flag or db.overlap_flag:
                continue
            try:
                pa, pb = drums.boundary_polygon(da), drums.boundary_polygon(db)
            except ValueError:
                continue
            chosen = (a2, b2, da, db, pa, pb)
            break
        if chosen:
            break
    if not chosen:
        print("ABORT at stage unfold: no witness yields clean domains")
        return 1
    sys_a, sys_b, da, db, pa, pb = chosen
    stage("tree", is_tree(sys_a) and is_tree(sys_b))
    stage("fixeq", f"{is_tree(sys_a)} (traces {tuple(sys_a.traces())}, sum {sum(sys_a.traces())})")
    sol = find_transplantation(sys_a, sys_b)
    stage("transplantation_invertible", bool(sol and sol.invertible))
    stage("permutation_solution", sol.permutation_solution is not None if sol else None)
    if not (sol and sol.invertible) or sol.permutation_solution is not None:
        print("ABORT at stage transplantation")
        return 1
    stage("overlap_a", da.overlap_flag)
    stage("overlap_b", db.overlap_flag)
    outdir = args.outdir or "."
    os.makedirs(outdir, exist_ok=True)
    for side, domain, poly, sys_ in (("a", da, pa, sys_a), ("b", db, pb, sys_b)):
        with open(os.path.join(outdir, f"gww_{side}.ivs"), "w") as fh:
            fh.write(format_involution_system(sys_))
        drums.export_svg(domain, os.path.join(outdir, f"gww_{side}.svg"), poly)
        drums.export_json(domain, os.path.join(outdir, f"gww_{side}.json"), poly)
    stage("artifacts", f"written to {outdir}")
    try:
        ra, rb = _spectra([pa, pb], args)
    except ValueError as exc:  # fewer than k interior nodes
        print(f"gww: {exc}", file=sys.stderr)
        return 2
    gaps = spectral.pairwise_relative_gaps(ra, rb)
    stage("spectrum_a", [round(x, 6) for x in ra.eigenvalues])
    stage("spectrum_b", [round(x, 6) for x in rb.eigenvalues])
    ok = max(gaps) <= args.tol
    stage("max_relative_gap", max(gaps))
    if args.json:
        report["pass"] = ok
        print(json.dumps(report, indent=1))
    else:
        print(f"{'PASS' if ok else 'FAIL'}: first {args.k} eigenvalues agree within "
              f"{args.tol:.2%} at h = {args.h}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="isodrum",
        description="Construct and verify group triples and isospectral drums.",
    )
    ap.add_argument("--seed", type=int, default=0, help="seed for all randomized internals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check AC/EC/FF/MAX/PAIR/INV on a triple spec")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.add_argument("--props", default=None,
                   help="comma list of properties the exit code requires (default all)")
    p.add_argument("--sides", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list or emit the projective flagship triples")
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("--nq", type=_nq, default="3,2", help="n,q as in 3,2")
    p.add_argument("--out", default=None)
    p.add_argument("--compress", action="store_true",
                   help="emit on the coset action (degree = index)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("construct", help="build a type 1/2/3 wreath triple")
    p.add_argument("--spec", required=True)
    p.add_argument("--type", type=int, choices=[1, 2, 3], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--top-degree", type=int, default=None)
    p.add_argument("--top-gens", default=None, help="bracketed 1-based cycle list")
    p.add_argument("--compress-base", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("transplant", help="solve the transplantation equation for two systems")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_transplant)

    p = sub.add_parser("unfold", help="unfold an involution system into a planar domain")
    p.add_argument("--system", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--json", dest="json_out", default=None, help="exact JSON output path")
    p.set_defaults(func=cmd_unfold)

    p = sub.add_parser("spectrum", help="Dirichlet eigenvalues of a domain")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--h", type=_spacing, default="1/64")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("spectrum-compare", help="pairwise eigenvalue gaps of two domains")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--h", type=_spacing, default="1/64")
    p.add_argument("--tol", type=float, default=0.01)
    p.set_defaults(func=cmd_spectrum_compare)

    p = sub.add_parser("scan", help="bounded census of transplantable pairs")
    p.add_argument("--spec", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("gww", help="the full flagship pipeline")
    p.add_argument("--h", type=_spacing, default="1/64")
    p.add_argument("--k", type=_positive_int, default=10)
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--outdir", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gww)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed help or its one-line error
        return exc.code
    try:
        return args.func(args)
    except SpecFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a path that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except SettingError as exc:
        print(f"setting error: {exc}", file=sys.stderr)
        return 2
    except BoundExceeded as exc:
        print(f"resource bound exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
