"""holostar: pulse-level simulation, compilation and verification of
holonomic gates on a star-shaped spin-qubit register.

The package holds only ``__version__``.  Each name is imported from the
module that defines it, for example ``holostar.architecture.simulate``."""

__version__ = "0.1.0"
