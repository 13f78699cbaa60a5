"""Representations of the nonstandard q-deformed orthogonal algebras.

Finite-dimensional classical and nonclassical irreps in Gel'fand-Tsetlin
bases, tensor products with the vector representation and their explicit
Clebsch-Gordan decomposition, and reduced matrix elements of vector
operators.
"""

from .qarith import (HalfInt, QContext, SingularCoefficientError,
                     ValidationError, q_bracket, q_bracket_plus, q_power)
from .gtbasis import (CLASSICAL, NONCLASSICAL, BasisIndex, BranchTarget,
                      GTPattern, IrrepLabel, branching_set, dimension,
                      enumerate_patterns, l_coords)
from .reps import (GeneratorMatrix, RelationReport, build_all_generators,
                   build_generator, check_relations, coeff_classical,
                   coeff_nonclassical, composite_generator)
from .tensorprod import tensor_action, tensor_rep
from .cgc import (CGCTable, Intertwiner, assemble_decomposition,
                  so2_coupled_vectors, top_cgc)
from .wigner import (ReducedElements, VectorOperator, canonical_vector_operator,
                     check_vector_operator, reduced_matrix_elements)

__all__ = [
    "HalfInt", "QContext", "ValidationError", "SingularCoefficientError",
    "q_bracket", "q_bracket_plus", "q_power",
    "CLASSICAL", "NONCLASSICAL", "BasisIndex", "BranchTarget", "GTPattern",
    "IrrepLabel", "branching_set", "dimension", "enumerate_patterns",
    "l_coords",
    "GeneratorMatrix", "RelationReport", "build_all_generators",
    "build_generator", "check_relations", "coeff_classical",
    "coeff_nonclassical", "composite_generator",
    "tensor_action", "tensor_rep",
    "CGCTable", "Intertwiner", "assemble_decomposition",
    "so2_coupled_vectors", "top_cgc",
    "ReducedElements", "VectorOperator", "canonical_vector_operator",
    "check_vector_operator", "reduced_matrix_elements",
]

__version__ = "0.1.0"
