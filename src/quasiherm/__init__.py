"""Dyson maps, physical metrics, and Hermitian avatars for quasi-Hermitian Hamiltonians."""

from .dyson import *
from .errors import *
from .linalg import *
from .matfile import *
from .models import *
from .observables import *

__version__ = "0.1.0"
