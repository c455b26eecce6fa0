"""ordersum: exact order-sums of finite abelian groups.

The order-sum of a finite group is the sum of the orders of its elements.
For abelian groups this package computes it exactly from the group's type
(closed formulas over plain Python ints), symbolically as a polynomial in
the prime, and by a definition-level oracle for independent verification.
Range sweeps with checkpointing scan all types order by order.
"""

from .arith import ExactDivisionError, exact_div, factorize, is_prime
from .analysis import (
    CheckpointError,
    CollisionRecord,
    DivisibleRecord,
    ImageReport,
    MonotonicityReport,
    SoundnessError,
    SweepCheckpoint,
    SweepOutcome,
    conjecture_sweep,
    divisibility_search,
    image_probe,
    load_checkpoint,
    monotonicity_check,
    save_checkpoint,
    scan_orders,
)
from .oracle import (
    DEFAULT_ENUM_CAP,
    EnumerationCapError,
    element_order,
    psi_bruteforce,
    psi_relative,
    relative_order,
    subgroup_closure,
)
from .partitions import (
    Partition,
    from_padded_tuple,
    iter_partitions,
    lex_compare,
    lex_successor,
    partitions_of,
    to_padded_tuple,
)
from .polynomial import ClosedFormReport, IntPoly, psi_symbolic, verify_closed_form
from .psi_core import (
    AbelianGroupType,
    GroupSpecError,
    PGroupType,
    component_moduli,
    f_eval,
    format_group_spec,
    group_type_of_order,
    parse_group_spec,
    psi_abelian,
    psi_cyclic,
    psi_elem_abelian,
    psi_near_elem,
    psi_p,
    psi_p_alt,
    psi_rank2,
    psi_rank3,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupType",
    "CheckpointError",
    "ClosedFormReport",
    "CollisionRecord",
    "DEFAULT_ENUM_CAP",
    "DivisibleRecord",
    "EnumerationCapError",
    "ExactDivisionError",
    "GroupSpecError",
    "ImageReport",
    "IntPoly",
    "MonotonicityReport",
    "PGroupType",
    "Partition",
    "SoundnessError",
    "SweepCheckpoint",
    "SweepOutcome",
    "component_moduli",
    "conjecture_sweep",
    "divisibility_search",
    "element_order",
    "exact_div",
    "f_eval",
    "factorize",
    "format_group_spec",
    "from_padded_tuple",
    "group_type_of_order",
    "image_probe",
    "is_prime",
    "iter_partitions",
    "lex_compare",
    "lex_successor",
    "load_checkpoint",
    "monotonicity_check",
    "parse_group_spec",
    "partitions_of",
    "psi_abelian",
    "psi_bruteforce",
    "psi_cyclic",
    "psi_elem_abelian",
    "psi_near_elem",
    "psi_p",
    "psi_p_alt",
    "psi_rank2",
    "psi_rank3",
    "psi_relative",
    "psi_symbolic",
    "relative_order",
    "save_checkpoint",
    "scan_orders",
    "subgroup_closure",
    "to_padded_tuple",
    "verify_closed_form",
    "__version__",
]
