"""12,000 seeded Holevo solves, one line each, to compare the solver of two trees.

The four variants take turns; kappa is log-uniform on [1e-12, 1], and 1
every 50th solve; Q is 0, 0.45 or uniform on [0, 0.45], and p_lost 0, 1 or
uniform on [0, 1].  Each line holds the inputs, chi_max and the argmax
(a, b, c, d, Re f, Im f) as ``float.hex``, and the evaluation count, so a
``diff`` of two runs lists every solve that moved, however little.
Standard library only; about 8 s on one core of a 2 vCPU Xeon.  Run it from
the root of each tree, here with the parent commit checked out in ../parent:

    PYTHONPATH=src python tests/solver_sweep.py > sweep.txt
    diff ../parent/sweep.txt sweep.txt
"""

import random

from ubb84.attack import maximize_holevo_qubit
from ubb84.protocol import ProtocolConfig, Variant


def solves(count=12_000, seed=2012):
    """(variant, kappa, q, p_lost) of each solve, drawn from one seeded generator."""
    rng = random.Random(seed)
    variants = list(Variant)
    for i in range(count):
        kappa = 1.0 if i % 50 == 0 else 10.0 ** rng.uniform(-12.0, 0.0)
        q = rng.choice((0.0, 0.45, rng.uniform(0.0, 0.45)))
        p_lost = rng.choice((0.0, 1.0, rng.random()))
        yield variants[i % 4], kappa, q, p_lost


if __name__ == "__main__":
    for variant, kappa, q, p_lost in solves():
        result = maximize_holevo_qubit(ProtocolConfig(kappa, variant), q, p_lost)
        s = result.argmax
        numbers = (kappa, q, p_lost, result.chi_max, s.a, s.b, s.c, s.d, s.f.real, s.f.imag)
        print(variant.value, *map(float.hex, numbers), result.iterations)
