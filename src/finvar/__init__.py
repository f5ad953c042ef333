"""First integrals of geodesic flows for projectively related Finsler metrics.

Build two Finsler metrics from the catalog, form a :class:`ProjectivePair`,
and the coefficients of det(H + Lambda I) give n-1 nontrivial conserved
quantities of the base metric's geodesic flow (plus the energy). The package
verifies conservation dynamically and cross-checks every closed form against
brute-force oracles.
"""

from .autodiff import HyperDual, Jet2, xy_jet2
from .dynamics import (GeodesicTrajectory, RapcsakReport, integrate_geodesic,
                       rapcsak_residual, trajectory_energy)
from .errors import (ConfigError, DegenerateAngularMetric, DegenerateVelocity,
                     DomainError, FinvarError, IntegratorStall,
                     NonFiniteResult, NonReversibleBackward,
                     OracleScopeExceeded, SingularMetric)
from .integrals import (FirstIntegralVector, PairJets, build_H,
                        charpoly_coefficients, f1_closed_form,
                        first_integrals, fn1_closed_form, integrals_along,
                        mu, pair_jets, painleve_I0, sarlet_K, tm_I1)
from .metrics import (FinslerMetric, MetricJet, ProjectivePair, TangentPoint,
                      catalog_metric, metric_jet)
from .oracle import (charpoly_by_interpolation, christoffel_oracle,
                     delta_alpha_combinatorial, fd_derivative)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DegenerateAngularMetric", "DegenerateVelocity",
    "DomainError", "FinslerMetric", "FinvarError", "FirstIntegralVector",
    "GeodesicTrajectory", "HyperDual", "IntegratorStall", "Jet2",
    "MetricJet", "NonFiniteResult", "NonReversibleBackward",
    "OracleScopeExceeded", "PairJets", "ProjectivePair", "RapcsakReport",
    "SingularMetric", "TangentPoint", "build_H", "catalog_metric",
    "charpoly_by_interpolation", "charpoly_coefficients",
    "christoffel_oracle", "delta_alpha_combinatorial", "f1_closed_form",
    "fd_derivative", "first_integrals", "fn1_closed_form",
    "integrals_along", "integrate_geodesic", "metric_jet", "mu",
    "painleve_I0", "pair_jets", "rapcsak_residual", "sarlet_K", "tm_I1",
    "trajectory_energy", "xy_jet2",
]
