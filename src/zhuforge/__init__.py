"""zhuforge: exact symbolic Zhu algebras from C1-presented vertex algebras.

Given finitely many generators with weights, the products u^i_k u^j for
k >= 0 in PBW form, and optionally some singular vectors, the package
completes the product table, computes normal forms by a Diamond-Lemma
rewrite system, measures the failure of the Jacobi identities, and derives
a presentation of the Zhu algebra as a quotient of a PBW-straightened
polynomial algebra — everything in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .catalog import bundled_names, load_bundled
from .engine import Engine, apply_D, complete_table
from .presentation import (
    Presentation,
    PresentationError,
    load_presentation,
    parse_presentation,
    validate,
)
from .quotient import QuotientModel, check_matrix_model, quotient_basis
from .reduction import JacobiDefect, c1_singular_elements, is_nondegenerate
from .va_calculus import OpExpansion, commutator, evaluate, generated_span
from .zhu import (
    ClosureBounds,
    GroebnerBasis,
    NCPoly,
    ZhuAlgebra,
    ZhuPresentation,
    circ,
    relation_closure,
    star,
    zhu_commutators,
    zhu_image,
)

__all__ = [
    "ClosureBounds",
    "Engine",
    "GroebnerBasis",
    "JacobiDefect",
    "NCPoly",
    "OpExpansion",
    "Presentation",
    "PresentationError",
    "QuotientModel",
    "ZhuAlgebra",
    "ZhuPresentation",
    "apply_D",
    "bundled_names",
    "c1_singular_elements",
    "check_matrix_model",
    "circ",
    "commutator",
    "complete_table",
    "evaluate",
    "generated_span",
    "is_nondegenerate",
    "load_bundled",
    "load_presentation",
    "parse_presentation",
    "quotient_basis",
    "relation_closure",
    "star",
    "validate",
    "zhu_commutators",
    "zhu_image",
    "__version__",
]
