"""Cyclic-group decompositions of series, generalized hyperbolic components,
twisted circulant identities, and q/psi-deformed calculus.

Importing the package loads no numpy: each function that works on arrays
imports it on first use, so commands that only sieve coefficients start fast.
"""

from . import cyclic, demoivre, hyperbolic, qpsi, reports, series
from .cyclic import *  # noqa: F401,F403
from .demoivre import *  # noqa: F401,F403
from .hyperbolic import *  # noqa: F401,F403
from .qpsi import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (cyclic, demoivre, hyperbolic, qpsi, reports, series)
           for name in module.__all__] + ["__version__"]
