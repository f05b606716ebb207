"""Exact computation with Nichols algebras and pointed Hopf algebras over D_m.

Scope: dihedral groups of order 2m with m = 4t, t >= 3.  The package
classifies the finite-dimensional Nichols algebras of Yetter-Drinfeld
modules over D_m, builds the quadratic Hopf-algebra presentations that
lift them, certifies dimensions by noncommutative rewriting (diamond
lemma), and computes isomorphism classes under the unit-group action.
All arithmetic is exact: rationals and roots of unity in Q(w_m).
"""

from .classify import (
    N_i,
    are_equivalent,
    enumerate_I,
    enumerate_K,
    enumerate_L,
    support_J,
    theorem_A_report,
)
from .cyclo import (
    CycloNumber,
    cyclotomic_polynomial,
)
from .dihedral import (
    CyclicCharacter,
    DihedralGroup,
    GroupElement,
    Irrep,
    KleinFourCharacter,
    centralizer,
    class_of,
    conjugacy_classes,
    irreps,
)
from .errors import CompletionError, DomainError
from .iso import (
    UnitModM,
    act_ell,
    act_pair,
    is_isomorphic_A,
    is_isomorphic_B,
    iso_classes,
)
from .lifting import (
    LiftingDatum,
    Presentation,
    presentation_A,
    presentation_B,
)
from .rack import Rack, conjugation_rack, is_type_D
from .rewrite import (
    RewriteSystem,
    dimension,
    hopf_check,
    normal_basis,
)
from .ydmod import (
    Finite,
    Infinite,
    YDModule,
    braiding,
    direct_sum,
    induce,
    nichols_dimension,
)

__all__ = [
    "CompletionError",
    "CyclicCharacter",
    "CycloNumber",
    "DihedralGroup",
    "DomainError",
    "Finite",
    "GroupElement",
    "Infinite",
    "Irrep",
    "KleinFourCharacter",
    "LiftingDatum",
    "N_i",
    "Presentation",
    "Rack",
    "RewriteSystem",
    "UnitModM",
    "YDModule",
    "act_ell",
    "act_pair",
    "are_equivalent",
    "braiding",
    "centralizer",
    "class_of",
    "conjugacy_classes",
    "conjugation_rack",
    "cyclotomic_polynomial",
    "dimension",
    "direct_sum",
    "enumerate_I",
    "enumerate_K",
    "enumerate_L",
    "hopf_check",
    "induce",
    "irreps",
    "is_isomorphic_A",
    "is_isomorphic_B",
    "is_type_D",
    "iso_classes",
    "nichols_dimension",
    "normal_basis",
    "presentation_A",
    "presentation_B",
    "support_J",
    "theorem_A_report",
]

__version__ = "0.1.0"
