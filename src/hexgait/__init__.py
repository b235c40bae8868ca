"""Imitation gait learning from synthetic event-camera footage.

Pipeline: decode an event file block by block into 40 ms binary frames,
stored as the keys of their set pixels, denoise and compress them with a
10x10 Boolean AND pool (I10) from the runs of 10 keys that fill a tile
row, train a six-neuron leaky integrate-and-fire network, its state held
as arrays, against a geometry-derived Gaussian leg labeler, then replay
rearranged (spliced) footage through the frozen network to drive
central-pattern-generator leg cycles.
"""

import os

# hexgait makes no BLAS call, yet numpy's bundled OpenBLAS starts its
# worker threads when numpy is imported, which costs CPU time on every CLI
# call. Set before any submodule imports numpy; a user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
