"""Numerical construction and certification of warped gradient Ricci solitons.

The package has four layers:

* ``patches`` / ``curvature`` -- coordinate charts and a finite-difference
  curvature engine (Christoffel, Ricci, Hessian, soliton residual) that
  acts as the independent oracle for everything else;
* ``warped`` -- warped-product assembly, closed-form Ricci blocks, the
  structure equations of warped soliton data, and the certification chain;
* ``shooting`` -- the rotationally symmetric ansatz reduced to an ODE
  system, integrated by shooting from a smooth origin;
* ``quotient`` -- finite isometric group actions and the hypothesis
  certificates for quotient constructions.

``cli`` wraps the workflows behind a JSON-config command line.
"""

__version__ = "0.1.0"

from . import curvature, patches, quotient, shooting, warped
from .patches import *  # noqa: F401,F403
from .curvature import *  # noqa: F401,F403
from .warped import *  # noqa: F401,F403
from .shooting import *  # noqa: F401,F403
from .quotient import *  # noqa: F401,F403

# each submodule's __all__ is the one list of its public names
__all__ = [*patches.__all__, *curvature.__all__, *warped.__all__,
           *shooting.__all__, *quotient.__all__]
