"""Extracted opers of generic connections, certified by resubstitution.

For seeded generic connections of ranks 2-6, every entry
c_-2 t^-2 + c_-1 t^-1 + c_0 with nonzero rational c_k, find a cyclic vector
v, extract the oper (a_1, ..., a_n) and check that
D^n v = a_1 D^(n-1) v + ... + a_n v holds below the tracked precision of
each row, and that the pole-order irregularity equals the Newton-polygon one.
"""

import random
from fractions import Fraction

from critcenter import (
    Connection,
    LaurentElement,
    connection_to_oper,
    cyclic_vector_search,
    irregularity,
    newton_polygon_irregularity,
)


def generic_connection(seed, rank):
    rng = random.Random(f"oper-resubstitution:{seed}:{rank}")

    def entry():
        return LaurentElement({
            e: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            for e in (-2, -1, 0)
        })

    return Connection([[entry() for _ in range(rank)] for _ in range(rank)])


ok = True
for rank in range(2, 7):
    for seed in range(3):
        conn = generic_connection(seed, rank)
        found = cyclic_vector_search(conn)
        chi = connection_to_oper(conn, found)
        images = [list(found.components)]
        for _ in range(rank):
            images.append(conn.apply(images[-1]))
        # D^n v - sum_l a_l D^(n-l) v, row by row
        residuals = [
            LaurentElement.dot(
                ((-a, images[rank - ell][r]) for ell, a in enumerate(chi.a, 1)),
                images[rank][r],
            )
            for r in range(rank)
        ]
        certified = all(x.is_zero_mod_precision() for x in residuals)
        irr, newton = irregularity(chi), newton_polygon_irregularity(chi)
        bits = max(c.denominator.bit_length() for a in chi.a for _, c in a.items())
        print(
            f"rank {rank} seed {seed}: resubstitution "
            f"{'holds' if certified else 'FAILS'} below O(t^"
            f"{min(x.precision for x in residuals)}), Irr {irr} (Newton {newton}), "
            f"largest denominator {bits} bits"
        )
        ok = ok and certified and irr == newton
print("OK" if ok else "FAILED")
