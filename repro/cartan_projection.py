"""Projection identity: the canonical Cartan projection sends S_l to omega_l."""

from critcenter import hc_project, ss_vectors

ok = True
for n in range(1, 7):
    family = ss_vectors(n)
    checks = [hc_project(s) == w for s, w in zip(family.S, family.omega)]
    print(f"n={n}: {checks}")
    ok = ok and all(checks)
print("OK" if ok else "FAILED")
