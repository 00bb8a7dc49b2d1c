"""Generalized FGM copulas driven by multivariate Bernoulli distributions.

The family couples a shape vector p in (0,1)^d with the law of a d-variate
Bernoulli vector; closed-form cdfs, densities, association measures and a
linear-cost sampler all follow from the stochastic representation
U_m = U_{0,m}^{1-p_m} U_{1,m}^{I_m}.

Each public name is declared once, in the ``__all__`` of the module that
defines it; this package re-exports those lists, and ``gfgm.__all__`` is
their concatenation in the order below.  ``gfgm.cli`` is not imported here.
"""

from .bernoulli import *
from .copula import *
from .association import *
from .sampling import *
from .exchangeable import *
from .specio import *
from .reference import *
from . import association, bernoulli, copula, exchangeable, reference, sampling, specio

__all__ = [
    name
    for module in (bernoulli, copula, association, sampling, exchangeable, specio, reference)
    for name in module.__all__
]

__version__ = "0.1.0"
