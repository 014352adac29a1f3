"""Reliable communication when the decoder holds a perturbed codebook.

The encoder codes with cx while the decoder only knows cu, a symbol-wise
random perturbation of cx.  This package computes the resulting capacity
max over p(x) of I(U; Y), simulates block transmission under typicality
and MAP decoding, and verifies the structural entropy identities of the
binary symmetric case exactly.
"""

from . import capacity, codec, info, rng, verify
from .capacity import *  # noqa: F403
from .codec import *  # noqa: F403
from .info import *  # noqa: F403
from .rng import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name for module in (capacity, codec, info, rng, verify) for name in module.__all__
] + ["__version__"]
