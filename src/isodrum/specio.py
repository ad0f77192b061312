"""The triple spec format: a triple and its optional construction stanza.

A triple spec opens with its group: ``degree:`` and ``generators:`` lines;
cycles in files are 1-based and juxtaposed cycles compose left to right.
``H:`` and ``K:`` generator lists follow (a ``K:`` line with the ``H:``
line's text parses to H itself), then an optional ``label:``, an optional
``pair:`` list of automorphism generator images, and an optional
``construct:`` stanza describing a wreath construction over the triple.
Emission is canonical, so emitted files parse back byte-identically.
There is no reader for a group on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import SpecFormatError
from .groups import PermGroup
from .permutations import format_cycles, parse_cycles
from .triples import Triple

if TYPE_CHECKING:
    from .constructions import ConstructionData

_TRIPLE_KEYS = ("label", "degree", "generators", "H", "K", "pair")
_STANZA_KEYS = ("variant", "n", "l", "k", "T_degree", "T_generators")


def _split_perm_list(body: str):
    """Split a bracketed list on commas outside parentheses."""
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise SpecFormatError(f"expected a bracketed list, got {body!r}")
    inner = body[1:-1]
    items = []
    depth = 0
    cur = []
    for ch in inner:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecFormatError("unbalanced parentheses in list")
        if ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise SpecFormatError("unbalanced parentheses in list")
    items.append("".join(cur))
    return [s.strip() for s in items if s.strip()]


def _scan_records(text: str):
    """key -> raw value, allowing bracketed values to span lines."""
    records = []
    pending_key = None
    pending_val = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line.strip() or line.strip().startswith("#"):
            continue
        if pending_key is not None:
            pending_val.append(line)
            joined = " ".join(pending_val)
            if joined.count("[") == joined.count("]"):
                records.append((pending_key, joined))
                pending_key, pending_val = None, []
            continue
        if ":" not in line:
            raise SpecFormatError(f"expected 'key: value', got {line!r}")
        key, val = line.split(":", 1)
        key = key.strip()
        val = val.strip()
        if val.count("[") != val.count("]"):
            pending_key, pending_val = key, [val]
        else:
            records.append((key, val))
    if pending_key is not None:
        raise SpecFormatError("unterminated list")
    return records


def _perm_list(raw: str, degree: int):
    return [parse_cycles(s, degree, one_based=True) for s in _split_perm_list(raw)]


def _group_from_records(records) -> PermGroup:
    if "degree" not in records:
        raise SpecFormatError("missing degree:")
    try:
        degree = int(records["degree"])
    except ValueError as exc:
        raise SpecFormatError(f"bad degree: {records['degree']!r}") from exc
    if degree <= 0:
        raise SpecFormatError("degree must be positive")
    if "generators" not in records:
        raise SpecFormatError("missing generators:")
    return PermGroup(degree, _perm_list(records["generators"], degree))


def parse_triple_spec(text: str):
    """Returns (triple, pair_candidate or None, stanza dict or None)."""
    records = _scan_records(text)
    seen = {}
    stanza = None
    for key, val in records:
        if key == "construct":
            if val:
                raise SpecFormatError("construct: must begin a stanza, not hold a value")
            if stanza is not None:
                raise SpecFormatError("repeated construct: stanza")
            stanza = {}
            continue
        if stanza is not None:
            if key not in _STANZA_KEYS:
                raise SpecFormatError(f"unknown construct key {key!r}")
            if key in stanza:
                raise SpecFormatError(f"repeated construct key {key!r}")
            stanza[key] = val
            continue
        if key not in _TRIPLE_KEYS:
            raise SpecFormatError(f"unknown key {key!r}")
        if key in seen:
            raise SpecFormatError(f"repeated key {key!r}")
        seen[key] = val
    G = _group_from_records(seen)
    for need in ("H", "K"):
        if need not in seen:
            raise SpecFormatError(f"missing {need}:")
    H = PermGroup(G.degree, _perm_list(seen["H"], G.degree))
    # a K: line with H:'s text is H itself, so one chain and one coset table serve both
    K = H if seen["K"] == seen["H"] else PermGroup(G.degree, _perm_list(seen["K"], G.degree))
    try:
        triple = Triple(G, H, K, label=seen.get("label", ""))
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
    pair = None
    if "pair" in seen:
        pair = _perm_list(seen["pair"], G.degree)
        if len(pair) != len(G.generators):
            raise SpecFormatError("pair: needs one image per generator")
    return triple, pair, stanza


def format_triple_spec(t: Triple, pair_candidate=None, stanza: dict | None = None) -> str:
    lines = []
    if t.label:
        lines.append(f"label: {t.label}")
    lines.append(f"degree: {t.G.degree}")
    for name, group in (("generators", t.G), ("H", t.H), ("K", t.K)):
        gens = ", ".join(format_cycles(g, one_based=True) for g in group.generators)
        lines.append(f"{name}: [{gens}]")
    if pair_candidate is not None:
        imgs = ", ".join(format_cycles(g, one_based=True) for g in pair_candidate)
        lines.append(f"pair: [{imgs}]")
    if stanza:
        lines.append("construct:")
        for key in _STANZA_KEYS:
            if key in stanza:
                lines.append(f"{key}: {stanza[key]}")
    return "\n".join(lines) + "\n"


def construction_from_stanza(base: Triple, stanza: dict) -> ConstructionData:
    from .constructions import ConstructionData  # only a construction needs this module

    if "variant" not in stanza:
        raise SpecFormatError("construct stanza needs variant:")
    try:
        variant = int(stanza["variant"])
    except ValueError as exc:
        raise SpecFormatError("variant must be 1, 2 or 3") from exc
    if "T_degree" not in stanza or "T_generators" not in stanza:
        raise SpecFormatError("construct stanza needs T_degree: and T_generators:")
    try:
        t_degree = int(stanza["T_degree"])
    except ValueError as exc:
        raise SpecFormatError(f"bad T_degree: {stanza['T_degree']!r}") from exc
    T = PermGroup(t_degree, _perm_list(stanza["T_generators"], t_degree))

    def _int(key):
        if key not in stanza:
            return None
        try:
            return int(stanza[key])
        except ValueError as exc:
            raise SpecFormatError(f"bad {key}: {stanza[key]!r}") from exc

    try:
        if variant in (1, 2):
            data = ConstructionData(variant=variant, base_triple=base, T=T, n=_int("n"))
        else:
            data = ConstructionData(variant=variant, base_triple=base, T=T,
                                    l=_int("l"), k=_int("k"))
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
    return data

