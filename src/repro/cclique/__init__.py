"""CONGESTED-CLIQUE MST engines (the §6.2 deletion subroutine).

The paper reduces a k-edge deletion batch to one MST instance on a
contracted graph with at most k+1 super-vertices, solved with the
Jurdziński–Nowicki O(1)-round CONGESTED-CLIQUE algorithm.  Per the
substitution table in DESIGN.md we provide three interchangeable engines
(every engine is exact; they differ only in measured round count):

* ``boruvka`` — deterministic Borůvka over batched min-queries,
  O(log k) rounds;
* ``lotker`` — merge-and-filter with doubly-growing machine groups
  (Lotker et al. 2003), O(log log k) rounds;
* ``sample_gather`` — JN-flavoured randomized engine: gather-and-solve
  when the instance is sparse (JN's O(1) base case), preceded by
  group-pair sparsification + Lenzen dedup when it is not; measured O(1)
  rounds on every instance the §6.2 reduction produces.

All engines speak :class:`CCEdge` (a super-vertex edge carrying the
original graph edge as payload) and leave every machine knowing the full
super-MSF.
"""

from repro.cclique.ccedge import CCEdge
from repro.cclique.engines import (
    ENGINES,
    boruvka_engine,
    cc_msf,
    lotker_engine,
    sample_gather_engine,
)
from repro.cclique.sketches import AGMSketch, SketchConnectivity
from repro.cclique.model import CongestedClique

__all__ = [
    "CCEdge",
    "cc_msf",
    "boruvka_engine",
    "lotker_engine",
    "sample_gather_engine",
    "ENGINES",
    "AGMSketch",
    "SketchConnectivity",
    "CongestedClique",
]
