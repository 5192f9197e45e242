"""Exact simulation and statistical verification of stationary max-stable
Markov processes: the discrete max-autoregressive chain, its time
reversal, and the continuous-time moving-maximum process."""

from . import (analysis, conditional, continuous, distributions, maxar,
               report, serialize, spectral)
from .analysis import *
from .conditional import *
from .continuous import *
from .distributions import *
from .maxar import *
from .report import *
from .serialize import *
from .spectral import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += analysis.__all__
__all__ += conditional.__all__
__all__ += continuous.__all__
__all__ += distributions.__all__
__all__ += maxar.__all__
__all__ += report.__all__
__all__ += serialize.__all__
__all__ += spectral.__all__
