"""Exact-solver size caps.

The exponential solvers refuse inputs above these fixed bounds, raising
TooLargeError instead of hanging.  They are constants, so a seeded run
depends on its arguments alone.
"""

COLORING_CAP = 20          # chromatic_number_exact vertex cap
SEPARABLE_CAP = 14         # is_chromatic_separable vertex cap
LINKAGE_PAIRS_CAP = 6      # find_linkage pair cap
LINKAGE_VERTEX_CAP = 24    # find_linkage vertex cap
WOVEN_CAP = 9              # exhaustive wovenness host cap
SEARCH_NODES = 2_000_000   # backtracking node budget per call
