"""Exact-arithmetic toolbox for coordination games on relationship graphs.

Players pick one of m strategies; utility is an intrinsic preference plus a
share of each co-located relationship's benefit.  The package provides
constructive equilibrium algorithms with proven approximation factors,
exhaustive verifiers and censuses, potential-function recovery, payment
stabilization, closed-form welfare bound tables, and generalizations to
complementarities, hypergraph relationships and conflict-aware variants.
All arithmetic is exact: games run on ints at one common denominator each,
results are reported as `fractions.Fraction`, and irrational thresholds
are decided by squared comparisons.
"""

from .analysis import (DeviationReport, EquilibriumCensus, PaymentPlan,
                       SizeError, StrongDeviationReport, brute_force_optimum,
                       deviation_report, equilibrium_census, mip_check,
                       payment_stabilize, post_payment_deviation_report,
                       semi_smoothness_check, table_fraction,
                       verify_approx_strong, welfare_lower_bound)
from .dynamics import (DynamicsTrace, HybridReport, Move, MoveRule,
                       algorithm1_two, best_response, hybrid,
                       one_shot_alpha_br, run_dynamics, sqrt2_three,
                       strong_two)
from .generalized import (GeneralizedGame, Hyperedge, HypergraphGame,
                          OmegaGame, additive_tables, hypergraph_cc_recover,
                          hypergraph_potential, lex_compare, lex_strong_eq,
                          mass_vector, one_shot_generalized,
                          supermodularity_degree, triangle_game,
                          triangle_nonexistence_check, verify_generalized,
                          verify_omega_strong)
from .model import (Edge, GameInstance, InstanceStats, UtilityBreakdown,
                    instance_stats, parse_instance, player_utility,
                    serialize_instance, welfare, welfare_total)
from .potentials import (AuditReport, PotentialCertificate, RecoveryFailure,
                         cc_recover, ordinal_audit, potential_delta,
                         potential_value)
from .rationals import (INF, ParseError, PHI_APPROX, SQRT2_APPROX,
                        at_least_sqrt2_times, format_rational, parse_rational,
                        supermodular_alpha)

__version__ = "0.1.0"
