"""Problem-solving toolbox (S15): the §3.5 queueing-theory models.

M/M/1 and M/M/c queueing with Little's-law checking.
"""

from .queueing import MM1, MMc, littles_law_holds

__all__ = [
    "MM1",
    "MMc",
    "littles_law_holds",
]
