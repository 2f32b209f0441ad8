"""Every memo a chain stage fills dies when the stage returns.

With the cyclic garbage collector off, an object in a reference cycle
outlives its call until the next full pass; ``gc.collect()`` returns how
many such objects it finds.  Each stage must leave none, and the family's
algebra must keep no straightening or projection table.  That is what lets
the stages run with the collector paused (``lincomb.gc_paused``): the
tests below check that each stage pauses it and gives it back as found.
"""

import gc
from fractions import Fraction

import pytest

from critcenter import sugawara
from critcenter.diffop import Connection, connection_to_oper, cyclic_vector_search
from critcenter.errors import ValidationError
from critcenter.laurent import LaurentElement as L
from critcenter.modules import (
    conductor_irregularity_report,
    root_fn_constant,
    root_fn_km0,
    root_fn_moy_prasad,
    ss_operator_act,
    state_is_central,
    vanishing_report,
)
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
        ss_operator_act(n, n, n - 1, rf)
        assert gc.collect() == 0, "ss_operator_act"
        for rank, other in [
            (n, root_fn_km0(n, 2)),
            (n, root_fn_constant(n, 2)),
            (2, root_fn_moy_prasad(2, [Fraction(1, 2), 0], Fraction(1, 2))),
        ]:
            assert all(vanishing_report(rank, other)["verified"])
            assert gc.collect() == 0, ("vanishing_report", other.describe())
        assert conductor_irregularity_report(n, 2)["vanishing_verified"]
        assert gc.collect() == 0, "conductor_irregularity_report"
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


def _paused_stages(n):
    """(name, call) for each stage entry point that pauses the collector, at rank n."""
    family = sugawara.ss_vectors(n)
    rf = root_fn_km0(n, 2)

    def cold_family():
        sugawara._family_cache.pop(n)
        return sugawara.ss_vectors(n)

    return [
        ("ss_vectors", cold_family),
        ("hc_project", lambda: hc_project(family.S[-1])),
        ("state_is_central", lambda: state_is_central(family.S[-1], n)),
        ("vanishing_report", lambda: vanishing_report(n, rf)),
        ("ss_operator_act", lambda: ss_operator_act(n, n, n, rf)),
    ]


def test_paused_stages_give_the_collector_back_as_found():
    assert gc.isenabled()
    for name, stage in _paused_stages(3):
        stage()
        assert gc.isenabled(), name
    gc.disable()
    try:
        for name, stage in _paused_stages(3):
            stage()
            assert not gc.isenabled(), name  # the caller's choice survives
    finally:
        gc.enable()


def test_a_raising_stage_enables_the_collector_again():
    with pytest.raises(ValidationError):
        vanishing_report(2, root_fn_km0(2, 1), scan_window=-1)
    assert gc.isenabled()


def test_report_through_the_nested_scan_enables_the_collector_again():
    assert conductor_irregularity_report(3, 2)["vanishing_verified"]
    assert gc.isenabled()


def test_no_collection_starts_inside_a_paused_stage():
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    stages = _paused_stages(4)
    threshold = gc.get_threshold()
    gc.set_threshold(10)  # each stage, unpaused, would collect at this rank
    gc.callbacks.append(count)
    try:
        for name, stage in stages:
            gc.collect()  # run the pass a previous stage deferred, outside the window
            before = len(starts)
            stage()
            assert len(starts) == before, name
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*threshold)
