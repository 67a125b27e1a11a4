"""Fair division of a one-dimensional resource with separation constraints.

The resource is either the unit interval (a "cake") or the unit circle
(a "pie"); agents hold piecewise-constant value densities, all arithmetic
is exact-rational, and any two allocated pieces must be at least a distance
``s`` apart.  The library covers guaranteed-share (maximin) decisions,
approximation and exact computation, share-fair and ordinal allocation
protocols in the two-query (eval/cut) model, envy-free and equitable
solvers under exact separation, and adaptive adversaries witnessing what
no finite query algorithm can do.
"""

from .cake import (Allocation, Partition, Relation, approx_mms, decide,
                   mms_fair_allocation, ordinal_allocation_2n_minus_1)
from .errors import InputError, InternalError, ProtocolError, SepfairError
from .exact_mms import (IntervalList, LPInstance, LPSolution,
                        brute_mms_interval_enum, exact_mms,
                        exact_mms_allocation, pie_exact_mms,
                        select_interval_list, solve_lp_exact)
from .fairness import (FairnessReport, envy_free_sperner,
                       equitable_bisection, fairness_check, pie_envy_free,
                       pie_equitable)
from .instances import Instance, load_instance, parse_instance, save_instance
from .pie import (pie_allocation_ordinal, pie_approx_mms,
                  pie_decide_equals_one_over_k, pie_decide_positive,
                  pie_via_cake_allocation)
from .sessions import QueryRecord, QuerySession, SubcakeSession
from .valuations import (Interval, PiecewiseConstantValuation, Topology,
                         cut_leftmost, cut_rightmost, flip,
                         minimum_window_value, value)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "Partition", "Relation", "approx_mms", "decide",
    "mms_fair_allocation", "ordinal_allocation_2n_minus_1",
    "InputError", "InternalError", "ProtocolError", "SepfairError",
    "IntervalList", "LPInstance", "LPSolution", "brute_mms_interval_enum",
    "exact_mms", "exact_mms_allocation", "pie_exact_mms",
    "select_interval_list", "solve_lp_exact",
    "FairnessReport", "envy_free_sperner",
    "equitable_bisection", "fairness_check", "pie_envy_free",
    "pie_equitable",
    "Instance", "load_instance", "parse_instance", "save_instance",
    "pie_allocation_ordinal", "pie_approx_mms",
    "pie_decide_equals_one_over_k", "pie_decide_positive",
    "pie_via_cake_allocation",
    "QueryRecord", "QuerySession", "SubcakeSession",
    "Interval", "PiecewiseConstantValuation", "Topology", "cut_leftmost",
    "cut_rightmost", "flip", "minimum_window_value", "value",
]
