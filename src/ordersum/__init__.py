"""ordersum: exact order-sums of finite abelian groups.

The order-sum of a finite group is the sum of the orders of its elements.
For abelian groups this package computes it exactly from the group's type
(closed formulas over plain Python ints), symbolically as a polynomial in
the prime, and by a definition-level oracle for independent verification.
Range sweeps with checkpointing scan all types order by order.

The package exports every name in the __all__ of the modules imported
below; each module's list is the only one.
"""

from .analysis import *
from .arith import *
from .oracle import *
from .partitions import *
from .polynomial import *
from .psi_core import *
from . import analysis, arith, oracle, partitions, polynomial, psi_core

__version__ = "0.1.0"

__all__ = [*analysis.__all__, *arith.__all__, *oracle.__all__,
           *partitions.__all__, *polynomial.__all__, *psi_core.__all__,
           "__version__"]
