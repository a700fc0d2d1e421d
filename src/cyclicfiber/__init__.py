"""Exact combinatorics of cyclic polytopes and their fiber polytopes.

Submodules
----------
cyclic     realizations, Gale evenness
gale       kernels, Gale transforms, circuits
subdiv     triangulations, bistellar flips, subdivision census, Baues posets
coherence  exact regularity / pi-coherence decisions with Farkas certificates
paths      cellular strings (Baues posets of C(n,d) -> C(n,1)), monotone paths,
           cyclic zonotopes
lp         the strict-feasibility kernel
catalog    published counts and example triangulations used for regression
cli        command-line interface (`cyclicfiber ...`)
"""

__version__ = "0.1.0"
