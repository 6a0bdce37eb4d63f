"""Numerical toolkit for variable-exponent Lebesgue, central BMO, and Herz
space norms, Hardy-type commutators, and the statement verification harness."""

from .exponents import (Exponent, constant_exponent, custom_exponent, is_in_P,
                        log_holder_check, piecewise_exponent, smooth_exponent)
from .funcs import (Func, abs_power, catalog_bank, chi_ball, chi_interval,
                    chi_ring, constant, dyadic_step, lincomb, lr_aggregate,
                    mean_on_ball, power, scaled_ball, sign_func, with_sign,
                    zero)
from .geometry import FULL_LINE, Ball, DyadicRing
from .norms import (NormResult, NotInSpaceError, chi_norm, dual_pairing_sup,
                    luxemburg_norm, modular)
from .operators import (OperatorImage, OperatorSample, commutator_dual_hardy,
                        commutator_hardy, dual_hardy, hardy, maximal)
from .quadrature import (QuadResult, QuadratureNonConvergence, integrate_annulus,
                         integrate_ball, integrate_interval)
from .report import CheckReport, fit_loglog
from .spaces import (SpaceNormResult, cbmo_classical_norm, cbmo_inf_norm,
                     cbmo_star_norm, cbmo_var_norm, herz_norm, herz_norm_vector)
from .verify import STATEMENT_IDS, run_all, run_statement, summary_table

__version__ = "0.1.0"
