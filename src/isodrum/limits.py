"""Default resource bounds; each caps one listing or one search.

``ENUMERATION_BOUND`` caps the rows listed by ``PermGroup.element_rows``
and the elements of the conjugation closure
(``transplant._conjugation_closure``), the only two listings of group
elements; everything that lists elements (conjugacy classes, the AC and EC
witnesses, PAIR's inner-square search on H, the candidates of INV and of
the census) goes through one of them.  ``INDEX_BOUND`` caps the cosets of
a coset table (``groups.left_cosets``), so it alone caps AC, FF and MAX.
``INV_SEARCH_BOUND`` caps the nodes of the forest search
(``transplant._forest_search``) that INV runs and the census filters: each
candidate tried as the next member of a subset counts once, and first
members skipped by the class-first rule do not count; no measured catalog
or construction input reaches it (exhausting all INV witnesses on
psl(4,2), which is its census's search, takes 20,863 nodes, and proving
INV false on the type-1 wreath of psl(3,2) takes 7,424).
``GF_BOUND`` in the environment is the one setting of the enumeration
bound (default ``ENUMERATION_BOUND``); it must be a positive integer.  Each
cap site reads ``enumeration_bound()`` or ``index_bound()`` when it runs, so
no bound is passed down a call stack.
"""

import os

from .errors import SettingError

ENUMERATION_BOUND = 10**6
INDEX_BOUND = 10**4
INV_SEARCH_BOUND = 200_000


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
