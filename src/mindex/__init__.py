"""Exact computer algebra for multi-index operads, Novikov products and
rooted-tree Hopf algebras."""

from .exact import Poly, bernoulli, binomial_poly, indefinite_sum, multinomial
from .words import (
    ArityError,
    NCPoly,
    Word,
    brace,
    compose,
    graded_dim,
    grading,
    partial_compose,
    word_coproduct,
)
from .monomials import (
    Alpha,
    CPoly,
    abelianize,
    novikov,
    novikov_multi,
    prelie,
    prelie_multi,
    shuffle_splits,
)
from .bialgebra import (
    Character,
    SElem,
    STensor,
    antipode,
    bar_product,
    cointeraction_holds,
    convolve,
    counit_graft,
    counit_sub,
    graft_coproduct,
    sub_coproduct,
)
from .trees import (
    Forest,
    HCKElem,
    HCKTensor,
    RootedTree,
    bplus,
    build_forest,
    contract_coproduct,
    corolla,
    cut_coproduct,
    ladder,
    strict_order_poly,
    tree_stats,
    trees_with_monomial,
)
from .morphisms import (
    DSSolution,
    antipode_via_mu,
    ds_solve,
    lift_coeff,
    mu_value,
    poly_invariant,
    tree_lift,
    tree_lift_is_morphism,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
