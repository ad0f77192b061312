"""Default resource bounds.

The enumeration bound caps any computation that lists group elements:
conjugacy classes, EC when AC fails (the classes of H and K), the AC and EC
witnesses, the inner-square search of PAIR (which lists H only; the swap
automorphism itself is verified without listing elements), and INV's
candidates: H's involutions and their closure under conjugation, and G's
involutions only when a witness may contain a fixed-point-free one (see
``triples.inv_witnesses``).  The index bound caps coset enumerations, so it
alone caps AC, FF and MAX.
The involution search bound caps the number of generator subsets examined
by the involution-system search.  ``GF_BOUND`` in the environment overrides
the enumeration bound; it must be a positive integer.
"""

import os

from .errors import SettingError

ENUMERATION_BOUND = 10**6
INDEX_BOUND = 10**4
INV_SEARCH_BOUND = 200_000
OKADA_SHUDO_NMAX = 13


def enumeration_bound(override=None):
    if override is not None:
        return int(override)
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


def index_bound(override=None):
    if override is not None:
        return int(override)
    return INDEX_BOUND
