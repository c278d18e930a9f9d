"""Exact-arithmetic seminormal modules on multi-coordinate skew tableaux.

The package builds the simple modules of the algebra generated by a complex
reflection group of type G(ell,1,n) together with commuting polynomial
generators, entirely over the cyclotomic field Q(zeta_ell): shape and tableau
combinatorics, explicit generator matrices, exhaustive relation/intertwiner
verification, an irreducibility oracle, and the inverse problem of rebuilding
the shape and tableau from a weight.
"""

from .classify import (ConditionViolation, check_weight_condition,
                       classify_roundtrip, reconstruct, violation_holds)
from .cyclo import Cyc, cyclotomic_polynomial, degree, root_of_unity
from .errors import (ConditionFailed, DegenerateShape, DimensionMismatch,
                     EmptyShape, HeckemodError, MismatchedField,
                     NoAddablePosition, NotAPartition, NotConnected, NotScalar,
                     NotSkew, NotStandard, ShapeError)
from .grpalg import (GroupAlgebraElement, GroupElement, color_generator,
                     evaluate_in_module, identity, jm_element, pi_element,
                     reduced_word, simple_transposition, transposition)
from .linalg import Mat, block_diag, nullspace_dim
from .modules import (ModuleRep, RelationCheck, VerificationReport,
                      build_module, central_character, commutant_dimension,
                      direct_sum, generator_matrix, jm_consistency,
                      module_to_json, twist, verify_intertwiners,
                      verify_relations)
from .shapes import (Component, SkewShapeL, Tableau, Weight,
                     apply_transposition, enumerate_shapes, enumerate_syt,
                     hook_dimension, inversion_set, is_partition_shape,
                     is_standard, joint_placement, partition_shape,
                     partitions_of, row_reading_tableau,
                     shape_from_json, shape_to_json, shift_contents,
                     tableau_from_json, tableau_path, tableau_to_json,
                     validate_and_canonicalize, weight_from_json,
                     weight_of, weight_to_json)

__all__ = [
    "Cyc", "cyclotomic_polynomial", "degree", "root_of_unity",
    "Component", "SkewShapeL", "Tableau", "Weight",
    "validate_and_canonicalize", "shift_contents", "partition_shape",
    "partitions_of", "is_partition_shape", "hook_dimension",
    "enumerate_shapes", "enumerate_syt",
    "row_reading_tableau", "is_standard", "weight_of", "inversion_set",
    "apply_transposition", "tableau_path", "joint_placement",
    "shape_to_json", "shape_from_json", "tableau_to_json", "tableau_from_json",
    "weight_to_json", "weight_from_json",
    "GroupElement", "GroupAlgebraElement", "identity", "simple_transposition",
    "transposition", "color_generator", "reduced_word", "jm_element",
    "pi_element", "evaluate_in_module",
    "Mat", "block_diag", "nullspace_dim",
    "ModuleRep", "RelationCheck", "VerificationReport", "build_module",
    "generator_matrix", "verify_relations", "verify_intertwiners",
    "commutant_dimension", "central_character", "twist",
    "direct_sum", "jm_consistency", "module_to_json",
    "ConditionViolation", "check_weight_condition", "violation_holds",
    "reconstruct", "classify_roundtrip",
    "HeckemodError", "MismatchedField", "ShapeError", "NotSkew",
    "NotConnected", "DegenerateShape", "EmptyShape", "NotAPartition",
    "NotStandard", "DimensionMismatch", "NotScalar", "ConditionFailed",
    "NoAddablePosition",
]

__version__ = "0.1.0"
