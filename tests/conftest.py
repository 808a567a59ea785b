"""One hypothesis profile for the whole suite.

``derandomize`` draws the same examples on every run, so a property test
reads the same on every run, and ``deadline=None`` keeps timing noise on a
loaded machine from failing one.
"""

from hypothesis import settings

settings.register_profile("haar-besov", deadline=None, derandomize=True)
settings.load_profile("haar-besov")
