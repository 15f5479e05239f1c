"""sgwl: dynamical semigroups of positive maps on bipartite systems.

Build generators from Kossakowski data, evolve them, decide positivity,
complete positivity and decomposability, and certify bound entanglement
through the duality pairing.
"""

from . import decomp, gksl, matcore, posmap

__all__ = ["decomp", "gksl", "matcore", "posmap"]
__version__ = "0.1.0"
