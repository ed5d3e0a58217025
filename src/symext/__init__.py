"""symext: extensions of symmetric operators with non-dense domains in C^d.

The toolkit follows one storyline: defect subspaces and Cayley transforms of a
symmetric operator (``cayley``), extensions parametrized by contractions
between defect subspaces (``neumann``), a three-way invertibility criterion and
a constructive chain ending in an invertible self-adjoint extension
(``invertibility``), and compressed resolvents of exit-space extensions with
the boundary condition singling out invertible generators (``resolvents``).
``instances`` draws seeded test operators, ``serialize`` fixes the JSON format,
and ``cli`` wires everything into subcommands and writes the resolvent CSV.
"""

from .cayley import (DefectData, cayley, defect_data, forbidden_operator, inverse_cayley,
                     is_admissible)
from .checks import CheckResult, run_suite
from .errors import (ChoiceExhausted, DomainViolation, ExpandingParameter,
                     InsufficientSamples, NotAdmissible, NotAnExtension, NotInvertible,
                     NotInvertibleBase, ParameterShapeViolation,
                     ProjectionDegenerate, RealPoint, ResolventSingular,
                     SpecInfeasible, SpectrumHit, SymextError)
from .instances import InstanceSpec, gen_symmetric, truncated_shift
from .invertibility import (ExtensionChain, InvertibilityVerdict,
                            build_invertible_selfadjoint, check_invertibility,
                            double)
from .neumann import (ContractionParameter, ExtensionReport, extend,
                      recover_parameter)
from .operators import (DomainOperator, LinearRelation, direct_sum_op,
                        graph_contains, graph_distance, inverse_op,
                        is_injective, is_isometric, is_symmetric,
                        operator_from_generators, operator_from_matrix,
                        scale_op)
from .resolvents import (EmbeddedExtension, IAdmissibilityVerdict,
                         ParameterFunction, compressed_resolvent,
                         default_lambda_grid, frak_b, frak_f,
                         i_admissibility_test, script_l, shtraus_resolvent)
from .subspaces import DEFAULT_TOL, SectorSpec, Subspace, orthonormalize

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "ChoiceExhausted", "ContractionParameter", "DEFAULT_TOL",
    "DefectData", "DomainOperator", "DomainViolation", "EmbeddedExtension",
    "ExpandingParameter", "ExtensionChain", "ExtensionReport",
    "IAdmissibilityVerdict", "InstanceSpec", "InsufficientSamples",
    "InvertibilityVerdict", "LinearRelation", "NotAdmissible",
    "NotAnExtension", "NotInvertible", "NotInvertibleBase",
    "ParameterFunction", "ParameterShapeViolation", "ProjectionDegenerate",
    "RealPoint", "ResolventSingular", "SectorSpec", "SpecInfeasible",
    "SpectrumHit", "Subspace", "SymextError", "build_invertible_selfadjoint",
    "cayley", "check_invertibility", "compressed_resolvent",
    "default_lambda_grid", "defect_data", "direct_sum_op", "double", "extend",
    "forbidden_operator", "frak_b", "frak_f", "gen_symmetric",
    "graph_contains", "graph_distance", "i_admissibility_test",
    "inverse_cayley", "inverse_op", "is_admissible",
    "is_injective", "is_isometric", "is_symmetric",
    "operator_from_generators", "operator_from_matrix",
    "orthonormalize", "recover_parameter", "run_suite", "scale_op",
    "script_l", "shtraus_resolvent", "truncated_shift",
]
