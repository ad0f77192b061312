"""isodrum: group triples, transplantation and isospectral drums."""

from .errors import BoundExceeded, SpecFormatError
from .permutations import Permutation, compose, format_cycles, parse_cycles
from .groups import (
    ConjugacyClasses,
    CosetTable,
    PermGroup,
    conjugacy_classes,
    core,
    is_simple,
    is_subgroup,
    left_cosets,
    normal_closure,
    orbit,
    same_group,
    stabilizer,
)
from .triples import (
    PairStatus,
    PropertyReport,
    Triple,
    check_ff,
    check_inv,
    check_max,
    check_pair,
    compress,
    is_ac,
    is_ec,
    property_report,
)
from .constructions import (
    ConstructionData,
    NotElementwiseConjugate,
    WreathElement,
    WreathGroup,
    add_kernel,
    diagonal_subgroup,
    direct_power,
    ec_witness,
    type1,
    type2,
    type3,
)
from .transplant import (
    InvolutionSystem,
    TransplantationSolution,
    detect_isometry,
    find_transplantation,
    fixeq_check,
    format_involution_system,
    is_tree,
    okada_shudo_scan,
    parse_involution_system,
)
from .drums import BaseTile, TiledDomain, boundary_polygon, export_json, export_svg, unfold
from .spectral import GridMask, SpectrumResult, dirichlet_eigenvalues, rasterize
from .catalog import ProjectiveSpace, duality_automorphism, psl_triple

__version__ = "0.1.0"
