"""Weights, condition tables and projection witnesses for linear
representations of primitive posets of finite representation type."""

from .core import (
    Condition,
    ConditionSet,
    DimVector,
    LinearForm,
    PosetRepError,
    PrimitivePoset,
    SymbolicWeight,
    Weight,
    classify_degeneracy,
    make_poset,
    trace_condition,
)
from .coxeter import (
    alpha_to_beta,
    beta_to_alpha,
    fminus_dim,
    fplus_dim,
    phiminus_concrete,
    phiminus_weight,
    phiplus_concrete,
    phiplus_weight,
    rho_dim,
    sigma_dim,
)
from .derive import (
    check_weight,
    derive_conditions,
    generate_table,
    interior_point,
    paper_corpus,
    regions_equivalent,
    simplify,
    verify_tables,
)
from .linrep import (
    SubspaceRep,
    QuiverRep,
    are_isomorphic,
    direct_sum,
    end_dim,
    family_1111,
    family_222,
    family_332,
    family_521,
    from_quiver_rep,
    hom_space,
    is_brick,
    is_indecomposable,
    make_rep,
    nonbrick_alpha,
    to_quiver_rep,
)
from .roots import (
    enumerate_indec_dims,
    is_finite_type,
    positive_roots,
    star_graph,
    tits_form,
)

__version__ = "0.1.0"

# The numeric witnesses need numpy, which the exact commands never load:
# these names import `posetrep.numeric` on first access.
_NUMERIC = ("NumericRep", "structure_check", "unitarize")


def __getattr__(name: str):
    if name in _NUMERIC:
        from . import numeric

        return getattr(numeric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
