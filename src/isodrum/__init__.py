"""isodrum: group triples, transplantation and isospectral drums.

Importing the package loads no submodule; import names from the submodules.
"""

__version__ = "0.1.0"
