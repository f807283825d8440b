"""What every ``processes`` pool worker starts with: the forkserver imports
this module once, before it forks any worker (see
``repro.mapreduce.backends._start_warm_forkserver``).

A job owns its pool, so whatever a fresh worker has to load inside its
first tasks, every job pays again, once per worker:

* numpy and the three pipelines (~0.2 s);
* ``numpy.ma`` (~10 ms): numpy 2 loads it lazily, on the ``np.ma.is_masked``
  check inside ``np.unique``;
* ``numpy.random`` (~6 ms): loaded lazily too, on a sampler's first draw;
* the OpenBLAS handle the worker initializer pins to one thread (~1 ms):
  resolved here, and inherited through the fork.
"""

import numpy  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

import repro.core.graphflat  # noqa: F401
import repro.core.infer  # noqa: F401
import repro.core.trainer  # noqa: F401
from repro.utils import blas

blas.describe()  # finds and keeps the handle
