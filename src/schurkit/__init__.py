"""Exact integer partitions, symmetric-group characters and symmetric polynomials."""

from .partitions import *
from .polyalgebra import *
from .characters import *
from .symfun import *

__version__ = "0.1.0"

__all__ = partitions.__all__ + polyalgebra.__all__ + characters.__all__ + symfun.__all__
