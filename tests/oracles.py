"""Reference constructions shared by several test files (not collected).

pytest's default import mode puts ``tests/`` on ``sys.path``, so a test
imports these as ``from oracles import vacuum_module``.
"""

from critcenter.algebra import Gen
from critcenter.modules import RootFunction, RootModule


def vacuum_module(n):
    """The vacuum module gl_n[[t]].v_0 = 0 at critical level.

    r = 0 everywhere realizes it.  States are its vectors; acting with
    Fourier coefficients here realizes products inside the vertex algebra
    itself.
    """
    values = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)}
    return RootModule(RootFunction(n, values, "vacuum", {}, _allow_zero_diagonal=True))


def lemma_relations_bound(word, rf):
    """Whether sum of degrees >= sum of depths, which forces word.v_0 = 0."""
    degrees = 0
    depths = 0
    for entry in word:
        g = entry if isinstance(entry, Gen) else Gen(*entry)
        degrees += g.u
        depths += rf(g.i, g.j)
    return degrees >= depths
