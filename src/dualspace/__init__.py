"""Numerical embeddings of noncompact classical symmetric spaces into
their compact duals, with the unit-lattice and cut-locus machinery the
constructions rest on."""

__version__ = "0.1.0"

from .errors import DomainError, NumericalError
from .spaces import (
    CATALOG,
    Family,
    FlatCoordinates,
    Side,
    SpaceDescriptor,
    SubspacePoint,
    TangentVector,
    in_group,
    make_space,
    same_point,
    transitivity_element,
)
from .lattice import (
    CutRadiusResult,
    LatticeBasis,
    cut_radius,
    cut_radius_brute,
    cut_radius_closed,
    in_half_region,
    region_fraction,
    su3_lattice,
)
from .embeddings import (
    GroupElement,
    b_embed_rank1,
    embed,
    f_embed,
    f_flat_rank1,
    g_embed,
    h_flat,
    log_compact,
    log_noncompact,
    p_embed,
    space_like,
)
from .verify import PropertyReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
