"""Reference for the package's substream draws: one generator per substream.

``ikmig.stochastic._complex_normals`` draws every substream's normal pair
in vectorized NumPy passes.  This module draws them the direct way, one
NumPy ``Philox`` generator re-keyed per substream in a Python loop, so
the tests can require the two to agree bit for bit.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def reference_complex_normals(seed: int, tag: int, streams: tuple[int, ...]) -> np.ndarray:
    """Complex samples z0 + i z1 from a standard normal pair, per substream.

    ``streams`` is (A,) for the substreams (a, 0) or (A, B) for the
    substreams (a, b).  Substream (tag, a, b) is the Philox stream with key
    [seed, tag<<56 | a<<28 | b] and counter 0.  One generator is re-keyed
    per substream, with a zero counter and an empty buffer, so it draws
    exactly what a fresh ``Generator(Philox(key=...))`` would.
    """
    out = np.empty(streams + (2,))
    bit_gen = np.random.Philox(0)
    gen = np.random.Generator(bit_gen)
    key = [int(seed), 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    a_count, b_count = streams + (1,) * (2 - len(streams))
    rows = out.reshape(-1, 2)
    for (a, b), row in zip(product(range(a_count), range(b_count)), rows):
        key[1] = (tag << 56) | (a << 28) | b
        bit_gen.state = state
        gen.standard_normal(out=row)
    return out.view(complex)[..., 0]
