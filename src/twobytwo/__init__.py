"""Association measures, margin-transformation coordinates and entropy
analysis for 2x2 probability tables.

The package re-exports the public names of its modules: the ``__all__`` of
each module is the one list of them.
"""

from .critical import *  # noqa: F403
from .grids import *  # noqa: F403
from .measures import *  # noqa: F403
from .scanner import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"
