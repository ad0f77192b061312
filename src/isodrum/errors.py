"""Exception types shared across the package."""


class BoundExceeded(Exception):
    """A configured resource bound (enumeration, index, search) was hit.

    Distinct from a negative answer: the computation was abandoned, not
    decided.
    """


class SettingError(Exception):
    """An environment setting, such as ``GF_BOUND``, is malformed or out of
    range."""


class SpecFormatError(ValueError):
    """A spec file (group, triple, involution system, domain) failed to parse."""
