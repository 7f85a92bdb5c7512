from hypothesis import settings

# Reproducible property tests: the same examples on every run, and no
# per-example deadline on a loaded machine.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")
