"""Cyclic-group decompositions of series, generalized hyperbolic components,
twisted circulant identities, and q/psi-deformed calculus."""

from .cyclic import (AlphaRoot, CyclicContext, alpha_root, make_context,
                     omega_scale, project_pointwise, project_series)
from .demoivre import (cheb_norm, circulant_checks, circulant_det_direct,
                       circulant_det_spectral, circulant_from_components,
                       circulant_group_law_residual, demoivre_matrix,
                       demoivre_sweep, generator_matrix, identity_suite,
                       negative_check_non_exp, sylvester_matrix)
from .hyperbolic import (HyperbolicFamily, build_family, family_from_json,
                         family_to_json, g_eval, h_eval, laurent_component)
from .qpsi import (PsiSequence, Polynomial, build_psi_hyperbolic,
                   generalized_translation, jackson_derivative, laguerre_family,
                   lowering_operator_apply, psi_derivative,
                   psi_sequence_from_json, psi_sequence_to_json, q_laguerre,
                   q_number, qpsi_checks, series_exp_psi,
                   verify_generating_function, verify_psi_binomial)
from .reports import IdentityReport, all_pass, reports_to_csv, reports_to_json
from .series import (DEFAULT_TRUNCATION, PRODUCT_DEGREE_CAP, DomainError,
                     EvalDomain, TruncatedSeries, coeff_close, coeff_residual,
                     constant_series, make_series, max_coeff_diff, series_exp,
                     series_from_json, series_geometric, series_to_json)

__version__ = "0.1.0"

__all__ = [
    "AlphaRoot", "CyclicContext", "alpha_root", "make_context",
    "omega_scale", "project_pointwise", "project_series",
    "cheb_norm", "circulant_checks", "circulant_det_direct",
    "circulant_det_spectral", "circulant_from_components",
    "circulant_group_law_residual", "demoivre_matrix", "demoivre_sweep",
    "generator_matrix", "identity_suite", "negative_check_non_exp",
    "sylvester_matrix",
    "HyperbolicFamily", "build_family", "family_from_json", "family_to_json",
    "g_eval", "h_eval", "laurent_component",
    "PsiSequence", "Polynomial", "build_psi_hyperbolic",
    "generalized_translation", "jackson_derivative", "laguerre_family",
    "lowering_operator_apply", "psi_derivative",
    "psi_sequence_from_json", "psi_sequence_to_json", "q_laguerre", "q_number",
    "qpsi_checks", "series_exp_psi",
    "verify_generating_function", "verify_psi_binomial",
    "IdentityReport", "all_pass", "reports_to_csv", "reports_to_json",
    "DEFAULT_TRUNCATION", "PRODUCT_DEGREE_CAP", "DomainError", "EvalDomain",
    "TruncatedSeries", "coeff_close", "coeff_residual", "constant_series",
    "make_series", "max_coeff_diff", "series_exp", "series_from_json",
    "series_geometric", "series_to_json",
    "__version__",
]
