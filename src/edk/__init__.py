"""Edit distances from edge-colored complete graphs and digraphs to
hereditary properties: clique spectra and chromatic numbers, type
enumeration, the exact distance-function bounds, randomized editing, and
brute-force oracles."""

from .errors import (
    AsymmetricFamilyError,
    CertificateError,
    EnumerationGuardError,
    PropertyFormatError,
    SizeGuardError,
    TrivialPropertyError,
    UsageError,
)
from .graphs import (
    BIEDGE,
    BWD,
    FWD,
    NONEDGE,
    ColoredGraph,
    DensityVector,
    DiGraph,
    DirDensity,
    Palette,
    PropertyFamily,
    color_density,
    contains_induced,
    dir_density,
    hamming,
    hamming_normalized,
    induced,
    is_member,
    palette,
)
from .files import format_graph, format_property, parse_graph, parse_property
from .spectrum import (
    STRONG,
    WEAK,
    CliqueSpectrum,
    chromatic_number,
    clique_spectrum,
    is_acyclic,
    is_strongly_good,
    is_transitive_tournament,
    is_trivial,
    is_weakly_good,
    spectrum_tuple_type,
)
from .crg import (
    DirType,
    RType,
    canonicalize,
    embeds,
    enumerate_types,
    in_admissible_set,
)
from .distance import (
    DistBound,
    UpperCertificate,
    check_certificate,
    dist_lower_turan,
    dist_max_upper,
    dist_upper,
    distfn_grid,
    f_value,
    g_value,
    m_matrix,
    quad_form,
    symmetric_bound,
)
from .editing import (
    edit_by_dirtype,
    edit_by_type,
    expected_changes,
    simple_edit,
)
from .oracle import (
    EstimateStats,
    estimate_dist,
    exact_dist,
    sample_digraph,
    sample_rgraph,
)

__version__ = "0.1.0"
