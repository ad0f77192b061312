"""Default resource bounds.

The enumeration bound caps any computation that lists group elements:
conjugacy classes, EC when AC fails (the classes of H and K), the AC and EC
witnesses, the inner-square search of PAIR (which lists H only; the swap
automorphism itself is verified without listing elements), and the
candidates of INV and of the census: H's involutions and their closure
under conjugation, and G's involutions only when a gluing tree may contain
a fixed-point-free involution (``transplant._tree_candidates`` holds the
three cases and their proof).  The index bound caps coset enumerations,
so it alone caps AC, FF and MAX.
The involution search bound caps the nodes of the forest search
(``transplant._forest_search``) that both INV and the census run: each
candidate tried as the next member of a subset counts once, and first
members skipped by the class-first rule do not count.  It is a backstop
that keeps every search finite; no measured catalog or construction input
reaches it (exhausting all INV witnesses takes 20,863 nodes on psl(4,2),
proving INV false on the type-1 wreath of psl(3,2) takes 7,424, and the
psl(4,2) census takes 20,163).  The census bound ``OKADA_SHUDO_NMAX`` caps
the tile count of ``okada_shudo_scan`` at 15, which admits the 15-tile
psl(4,2) triple.
``GF_BOUND`` in the environment is the one setting of the enumeration
bound (default ``ENUMERATION_BOUND``); it must be a positive integer.  Every
cap site reads ``enumeration_bound()`` or ``index_bound()`` when it runs, so
no bound is passed down a call stack.
"""

import os

from .errors import SettingError

ENUMERATION_BOUND = 10**6
INDEX_BOUND = 10**4
INV_SEARCH_BOUND = 200_000
OKADA_SHUDO_NMAX = 15


def enumeration_bound():
    env = os.environ.get("GF_BOUND")
    if env is None:
        return ENUMERATION_BOUND
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise SettingError(f"GF_BOUND must be a positive integer, got {env!r}")
    return value


def index_bound():
    return INDEX_BOUND
