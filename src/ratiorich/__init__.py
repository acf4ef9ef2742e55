"""Species richness estimation from frequency-count ratios.

The package predicts unseen (and, when untrusted, singleton) frequency counts
by fitting a rational-polynomial model to the ratios of successive frequency
counts, and quotes delta-method standard errors. A simulation laboratory
reproduces error and calibration experiments on negative-binomial populations
with corrupted singleton counts.
"""

from .freqtab import *
from .ratiofit import *
from .estimators import *
from .simlab import *
from . import estimators, freqtab, ratiofit, simlab

__version__ = "0.1.0"

# each module's __all__ is the one statement of its public names
__all__ = ["__version__", *freqtab.__all__, *ratiofit.__all__, *estimators.__all__, *simlab.__all__]
