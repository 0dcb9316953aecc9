"""Certify universal derived equivalences of finite posets at desk scale.

The package mechanizes a small calculus of matrix-valued formulas over
posets.  `poset_core` holds finite posets and their combinatorics;
`intmat` exact integer matrices; `formula_cat` the formula calculus with
the paper's reference constants over the two-element chain; `gluing` the
admissible-gluing data and the two induced orders; `abelian_eval`
evaluation into complexes of vector spaces over exact fields, with the
random split diagrams of the trials; `harness` the randomized
verification pipelines, with the two-chain instance derived from the
point-over-point gluing; and `cli` the command-line front end.  The
random maps between diagrams that only the functor-law tests use live in
the test suite (tests/generators.py), not here.  The named formula
constants (`NU`, `XI12`, the retract maps, `TWO_CHAIN_PLUS`, ...) are made
when they are read, so importing the package builds and checks no formula.
"""

from .abelian_eval import (
    RATIONALS,
    DiagramMap,
    Field,
    PosetDiagram,
    VectComplex,
    cohomology_table,
    eval_formula,
    eval_formula_map,
    is_quasi_iso,
    is_quasi_iso_diagram,
    random_diagram,
    shift_diagram,
)
from .errors import (
    AntichainViolation,
    CommutativityFailure,
    DiagramAxiomFailure,
    InternalInconsistency,
    NaturalityFailure,
    NoPathFound,
    NotATree,
    ParseError,
    PosetGlueError,
    SizeLimit,
)
from . import formula_cat, harness
from .formula_cat import (
    TWO_CHAIN,
    CMorphism,
    CObject,
    Formula,
    FormulaToPoint,
    canonical_formula,
    check_formula,
    check_formula_morphism,
    check_homotopy,
    compose,
    compose_formulas,
    i_xi,
    shift,
    star,
    substitute,
    translation_formula,
)
from .gluing import (
    GluedOrder,
    GluingData,
    build_minus,
    build_plus,
    from_bgp,
    from_function,
    gluing_from_json,
    gluing_to_json,
    ordinal_witness,
    validate_gluing,
)
from .harness import (
    FIGURE_ONE_PAIRS,
    EpsilonTransform,
    EquivalenceCertificate,
    TrialRecord,
    build_epsilons,
    build_theorem_formulas,
    counterexample_data,
    figure_one_gluing,
    figure_one_poset,
    random_gluing,
    verify_bgp_path,
    verify_equivalence,
    verify_two_chain,
    verify_x1z,
)
from .intmat import Mat
from .poset_core import (
    Poset,
    direct_sum,
    hasse,
    is_isomorphic,
    opposite,
    ordinal_sum,
    poset_from_generators,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    product,
)
from .rng import SplitMix64, derive_seed

__version__ = "0.1.0"


def __getattr__(name):
    """The named formula constants (PEP 562): formula_cat's NU, XI12, XI121,
    XI212 and retract maps, and harness's TWO_CHAIN_PLUS and
    TWO_CHAIN_MINUS, read from their modules, which make them on each read;
    importing the package builds and checks no formula."""
    if name in formula_cat._CONSTANTS:
        return getattr(formula_cat, name)
    if name in harness._TWO_CHAIN_FORMULAS:
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
