"""Exact-arithmetic engine for free differential Lie Rota-Baxter algebras.

Layers, bottom up: flattened operator-word terms and orders (``words``),
rational polynomials with the weighted differential (``algebra``),
Lyndon-Shirshov combinatorics and special bracketings (``lyndon``),
expression parsing and printing (``syntax``), the generic
composition-diamond rewriting engine (``rewriting``), the concrete
Rota-Baxter rule system with fast normal forms and basis enumeration
(``rota_baxter``), naive test oracles (``reference``), and the command
line (``cli``).
"""

from .algebra import (
    AlgebraConfig,
    Poly,
    apply_D,
    apply_operator,
    commutator,
    d_power_leading,
    leading,
    lie_expand,
    multiply,
    subst_poly,
)
from .lyndon import (
    enumerate_alsw,
    enumerate_alsw_by_degree,
    is_alsw,
    is_alsw_hereditary,
    ls_factorization,
    shirshov_bracket,
    special_bracket,
    special_expand,
)
from .rewriting import (
    Ambiguity,
    GsbReport,
    LieCombination,
    LiftedRule,
    ReductionStep,
    RewriteSystem,
    Rule,
    make_rule,
)
from .rota_baxter import (
    AxiomReport,
    DrblSystem,
    drbl_nf,
    enumerate_basis,
    instantiate_rules,
    s1_rules,
    verify_axioms,
)
from .syntax import (
    TermSyntaxError,
    format_poly,
    format_term,
    parse_poly,
    parse_term,
    parse_word,
)
from .words import (
    Alphabet,
    Context,
    NaLeaf,
    NaOp,
    NaPair,
    OpApp,
    Prime,
    Word,
    enumerate_words,
    occurrences,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraConfig",
    "Alphabet",
    "Ambiguity",
    "AxiomReport",
    "Context",
    "DrblSystem",
    "GsbReport",
    "LieCombination",
    "LiftedRule",
    "NaLeaf",
    "NaOp",
    "NaPair",
    "OpApp",
    "Poly",
    "Prime",
    "ReductionStep",
    "RewriteSystem",
    "Rule",
    "TermSyntaxError",
    "Word",
    "apply_D",
    "apply_operator",
    "commutator",
    "d_power_leading",
    "drbl_nf",
    "enumerate_alsw",
    "enumerate_alsw_by_degree",
    "enumerate_basis",
    "enumerate_words",
    "format_poly",
    "format_term",
    "instantiate_rules",
    "is_alsw",
    "is_alsw_hereditary",
    "leading",
    "lie_expand",
    "ls_factorization",
    "make_rule",
    "multiply",
    "occurrences",
    "parse_poly",
    "parse_term",
    "parse_word",
    "s1_rules",
    "shirshov_bracket",
    "special_bracket",
    "special_expand",
    "subst_poly",
    "verify_axioms",
]
