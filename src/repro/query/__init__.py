"""Point-query operators over R-trees.

These are the building blocks the CIJ algorithms borrow from earlier work:

* best-first (incremental) nearest-neighbour search [Hjaltason & Samet 1999],
  whose priority-queue discipline also drives BF-VOR and ConditionalFilter,
* the time-parameterised NN query [Tao & Papadias 2002] needed by the
  TP-VOR baseline of Zhang et al.
"""

from repro.query.nearest import incremental_nearest, nearest_neighbor
from repro.query.tpnn import tp_nearest_neighbor

__all__ = [
    "incremental_nearest",
    "nearest_neighbor",
    "tp_nearest_neighbor",
]
