"""Model zoo: snapshot GCN, temporal GCN+GRU, and day-feature baselines."""

from . import baselines, gcn, state, temporal
from .baselines import *  # noqa: F403 -- each module's __all__ is the package's
from .gcn import *  # noqa: F403
from .state import *  # noqa: F403
from .temporal import *  # noqa: F403

__all__ = state.__all__ + gcn.__all__ + temporal.__all__ + baselines.__all__
