"""Exact arithmetic for Euler's magic matrices.

A square matrix M is Euler magic when M * M^t = gamma * I for some nonzero
gamma and both the diagonal and the anti-diagonal squared-entry sums equal
gamma; it is proper when all n^2 entry squares are pairwise distinct, in
which case squaring entrywise yields a magic square of squares.  This
package verifies such matrices exactly, reproduces the classical 4x4 and an
8x8 example together with a four-parameter proper family, certifies the 3x3
nonexistence via polynomial identities, builds improper constructions for
4 <= n <= MAX_PERM_SIZE, and runs seeded searches in the 5x5 and 8x8 regimes.

Each library module declares its public names once, in its __all__; the
package republishes them all.
"""

from .matrices import *  # noqa: F401,F403
from .poly import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .cayley import *  # noqa: F401,F403
from .certificates import *  # noqa: F401,F403
from .octonion import *  # noqa: F401,F403
from .family8 import *  # noqa: F401,F403
from .permutations import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403

__version__ = "0.1.0"
