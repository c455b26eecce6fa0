"""ordersum: exact order-sums of finite abelian groups.

The order-sum of a finite group is the sum of the orders of its elements.
For abelian groups this package computes it exactly from the group's type
(closed formulas over plain Python ints), symbolically as a polynomial in
the prime, and by a definition-level oracle for independent verification.
Range sweeps with checkpointing scan all types order by order.

The package exports every name in the __all__ of the six modules in
_MODULES; each module's list is the only one.  Importing the package
imports none of them (PEP 562): a module is imported when one of its
names, or the module itself, is first asked for, and __all__ (so also
`from ordersum import *`) imports all six.  So a command-line call
compiles only the modules its command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module after the modules it imports, so that asking for a name
# imports its own module and what that module needs, no other.  __all__
# joins their lists in the modules' alphabetical order.
_MODULES = ("arith", "partitions", "psi_core", "polynomial", "oracle",
            "analysis")


def __getattr__(name: str):
    if name == "__all__":
        value = [*(public for module in sorted(_MODULES)
                   for public in __getattr__(module).__all__), "__version__"]
    elif name in _MODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(
                f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
