"""Exact-solver size caps.

The exponential solvers refuse inputs above these bounds instead of hanging.
The MINORFORGE_CAPS environment variable can raise them for tests, as a
comma-separated list of name=value pairs, e.g.

    MINORFORGE_CAPS="coloring=24,linkage_n=30"

This override exists for test rigs only; library code never sets it.  An
unknown name or a value that is not an integer raises ParseError.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ParseError


@dataclass(frozen=True)
class Caps:
    coloring: int = 20          # chromatic_number_exact vertex cap
    separable: int = 14         # is_chromatic_separable vertex cap
    linkage_k: int = 6          # find_linkage pair cap
    linkage_n: int = 24         # find_linkage vertex cap
    woven: int = 9              # exhaustive wovenness host cap
    search_nodes: int = 2_000_000  # backtracking node budget per call


_FIELDS = frozenset(f.name for f in fields(Caps))


def _from_env(base: Caps) -> Caps:
    raw = os.environ.get("MINORFORGE_CAPS", "")
    if not raw.strip():
        return base
    updates = {}
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in _FIELDS:
            raise ParseError(f"MINORFORGE_CAPS: unknown cap {name!r}")
        try:
            updates[name] = int(value)
        except ValueError:
            raise ParseError(
                f"MINORFORGE_CAPS: cap {name!r} needs an integer, got {value.strip()!r}"
            ) from None
    return replace(base, **updates) if updates else base


def active_caps() -> Caps:
    """Caps in effect for this process (env override re-read each call)."""
    return _from_env(Caps())
