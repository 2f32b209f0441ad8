"""Every memo a chain stage fills dies when the stage returns.

With the cyclic garbage collector off, an object in a reference cycle
outlives its call until the next full pass; ``gc.collect()`` returns how
many such objects it finds.  Each stage must leave none, and the family's
algebra must keep no straightening or projection table.
"""

import gc

from critcenter import sugawara
from critcenter.diffop import Connection, connection_to_oper, cyclic_vector_search
from critcenter.laurent import LaurentElement as L
from critcenter.modules import root_fn_km0, state_is_central, vanishing_report
from critcenter.pbw import hc_project


def test_chain_and_oper_stages_leave_no_cyclic_garbage():
    n = 4
    conn = Connection(
        [
            [L.zero(), L.monomial(-2), L.one()],
            [L.one(), L.zero(), L.monomial(-1)],
            [L.monomial(-1), L.one(), L.zero()],
        ]
    )
    rf = root_fn_km0(n, 1)
    saved = sugawara._family_cache.pop(n, None)
    gc.collect()
    gc.disable()
    try:
        family = sugawara.ss_vectors(n)  # cold: built in this call
        assert gc.collect() == 0, "ss_vectors"
        for s, w in zip(family.S, family.omega):
            assert hc_project(s) == w
            assert gc.collect() == 0, "hc_project"
            assert state_is_central(s, n)
            assert gc.collect() == 0, "state_is_central"
        assert all(vanishing_report(n, rf)["verified"])
        assert gc.collect() == 0, "vanishing_report"
        found = cyclic_vector_search(conn)
        assert gc.collect() == 0, "cyclic_vector_search"
        connection_to_oper(conn, found)
        assert gc.collect() == 0, "connection_to_oper"
    finally:
        gc.enable()
        if saved is not None:
            sugawara._family_cache[n] = saved
    caches = family.S[0].algebra._straighten_cache
    assert not caches, len(caches)
