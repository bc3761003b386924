"""Canonical decompositions of systems of subspaces of C^n.

The package decides, constructively and with explicit residual
certificates, how a finite system of subspaces of a finite-dimensional
complex inner-product space decomposes: pairs via canonical angles, triples
via the nine-block canonical form whose multiplicity vector is a complete
isomorphism invariant, and pentagon-hypothesis triples by reading that
form's blocks.  A catalog builds systems with prescribed block structure
for testing, and a CLI exposes the lot on JSON system files.

The public names are each module's ``__all__``, re-exported here.
"""

from .linalg import *
from .two_subspaces import *
from .systems import *
from .brenner import *
from .pentagon import *
from .catalog import *
from . import brenner, catalog, linalg, pentagon, systems, two_subspaces

__version__ = "0.1.0"

__all__ = (linalg.__all__ + two_subspaces.__all__ + systems.__all__
           + brenner.__all__ + pentagon.__all__ + catalog.__all__)
