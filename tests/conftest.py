from hypothesis import settings

# Derandomized and bounded, so every run of the suite draws the same examples
# in about the same time; no example database is written.
settings.register_profile("rsvlm", derandomize=True, max_examples=500, deadline=None, database=None)
settings.load_profile("rsvlm")
