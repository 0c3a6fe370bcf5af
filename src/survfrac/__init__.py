"""Mean survival time by ordered fractions of a population, under right censoring."""

__version__ = "0.1.0"

from . import dataset, fracmean, inference, km, sim
from .dataset import *
from .fracmean import *
from .inference import *
from .km import *
from .sim import *

# each module declares its own public names
__all__ = ["__version__", *dataset.__all__, *fracmean.__all__, *inference.__all__,
           *km.__all__, *sim.__all__]
