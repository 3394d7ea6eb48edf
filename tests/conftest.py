"""Settings shared by the whole test suite.

Property tests run under one Hypothesis profile. It has no deadline,
because on a shared machine the time of one example drifts by tens of
percent and a slow example is not a failing one. ``print_blob`` keeps
the reproduction blob of a failing example in the report.
"""

from hypothesis import settings

settings.register_profile("sstep-gmres", deadline=None, print_blob=True)
settings.load_profile("sstep-gmres")
