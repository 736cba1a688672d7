"""Exact matrix algebra over rings with verified matrix-group witnesses.

Layers, bottom up: canonical ring arithmetic (`rings`), dense exact
matrices (`matrix`), Hermite/Smith forms with kernel streams
(`normal_forms`), group generators and invariant forms (`groups`),
verified witness families in stabilizer intersections (`witnesses`), and
seeded reporting suites plus a CLI (`suites`, `cli`).
"""

from .errors import (
    IdentityViolation,
    NotInvertibleError,
    ParseError,
    UnsupportedRingError,
)
from .rings import (
    GaussianIntegers,
    IntegerPolynomials,
    Integers,
    Modular,
    PrimeFieldPolynomials,
    Ring,
    ring_from_text,
)
from .matrix import (
    Matrix,
    format_matrix,
    format_vector,
    parse_matrix,
    unit_vector,
)
from .normal_forms import (
    KernelModule,
    hermite_normal_form,
    in_row_span,
    kernel_basis,
    smith_normal_form,
    solution_stream,
)
from .groups import (
    BilinearForm,
    GeneratorWord,
    WordToken,
    elementary_matrix,
    embed_stabilize,
    form_matrix,
    format_word,
    parse_word,
    preserves_form,
    sigma_index,
    unitary_generator,
)
from .witnesses import (
    BlockWitness,
    ShearWitness,
    StabilizerContext,
    block_unipotent_witnesses,
    build_shear,
    complement_module,
    conjugate_module,
    intersection_witnesses,
    stabilizer_check,
    transvection,
    transvection_short,
)
from .suites import SUITE_IDS, WitnessReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "BlockWitness",
    "GaussianIntegers",
    "GeneratorWord",
    "IdentityViolation",
    "IntegerPolynomials",
    "Integers",
    "KernelModule",
    "Matrix",
    "Modular",
    "NotInvertibleError",
    "ParseError",
    "PrimeFieldPolynomials",
    "Ring",
    "SUITE_IDS",
    "ShearWitness",
    "StabilizerContext",
    "UnsupportedRingError",
    "WitnessReport",
    "WordToken",
    "block_unipotent_witnesses",
    "build_shear",
    "complement_module",
    "conjugate_module",
    "elementary_matrix",
    "embed_stabilize",
    "form_matrix",
    "format_matrix",
    "format_vector",
    "format_word",
    "hermite_normal_form",
    "in_row_span",
    "intersection_witnesses",
    "kernel_basis",
    "parse_matrix",
    "parse_word",
    "preserves_form",
    "ring_from_text",
    "run_suite",
    "sigma_index",
    "smith_normal_form",
    "solution_stream",
    "stabilizer_check",
    "transvection",
    "transvection_short",
    "unit_vector",
    "unitary_generator",
]
