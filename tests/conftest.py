from hypothesis import settings

# Property tests run the same examples on every run, with no time limit
# per example and no example database written to the working tree.
settings.register_profile("twistlab", deadline=None, derandomize=True, database=None)
settings.load_profile("twistlab")
