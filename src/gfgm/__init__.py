"""Generalized FGM copulas driven by multivariate Bernoulli distributions.

The family couples a shape vector p in (0,1)^d with the law of a d-variate
Bernoulli vector; closed-form cdfs, densities, association measures and a
linear-cost sampler all follow from the stochastic representation
U_m = U_{0,m}^{1-p_m} U_{1,m}^{I_m}.
"""

from .bernoulli import (
    BernoulliPmf,
    InvalidDistributionError,
    comonotonic,
    complemented,
    countermonotonic_bivariate,
    from_theta_bivariate,
    independent,
    load_pmf_file,
    marginals,
    moments_to_pmf,
    nu_all,
    nu_coefficient,
    pmf_to_moments,
    save_pmf_file,
    theta_bounds,
    theta_of,
)
from .copula import GfgmCopula, cdf, cdf_natural, pdf, survival, survival_by_cdf
from .association import (
    AssociationReport,
    ConcordanceResult,
    check_concordance,
    gauss_legendre_unit,
    max_measures_gfgm_p,
    measures,
    measures_by_quadrature,
    min_measures_exchangeable,
    rho_c,
    rho_cL,
    rho_cU,
    tau,
)
from .sampling import (
    GENERATOR_ID,
    SampleBatch,
    empirical_measures,
    sample,
    sample_bernoulli,
    uniform_ks_statistic,
)
from .exchangeable import (
    ExchangeableCountPmf,
    MixtureSpec,
    beta_mixture_copula,
    beta_moments,
    comonotone_count_pmf,
    count_pmf_of,
    end_count_pmf,
    end_pmf,
    expand,
    extremal_count_pmfs,
    measures_exchangeable,
    mixture_copula_cdf,
    mixture_count_pmf,
    parse_exchangeable_spec,
)
from .specio import build_copula, load_copula_spec
from .reference import (
    BivariateGfgm,
    Coxian2Params,
    cdf_epd,
    coxian2_lst,
    fgm_natural_cdf,
    fgm_thetas,
    huang_kotz_cdf,
    marginal_cdf_representation,
)

__version__ = "0.1.0"
