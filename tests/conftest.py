"""Suite-wide pytest configuration.

``--hypothesis-profile=ci`` selects the ``ci`` profile below: ten times
the default number of examples, for property tests whose ``@settings``
leave ``max_examples`` to the profile.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
