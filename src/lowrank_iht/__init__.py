"""Iterative hard thresholding for low-rank matrix recovery.

Estimators for noisy trace regression with spectral hard thresholding and a
geometrically shrinking threshold schedule, one-step debiased entrywise
confidence intervals, a multi-qubit Pauli measurement simulator producing
trace-regression datasets, and a sparse vector analogue. The experiments
module and the ``lowrank-iht`` CLI run seeded Monte-Carlo grids over all
three.
"""

from .linalg import *
from .trace_model import *
from .iht import *
from .inference import *
from .quantum import *
from .sparse import *
from .experiments import *

__version__ = "0.1.0"
