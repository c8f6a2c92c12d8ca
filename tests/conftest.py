"""Suite-wide pytest settings for the unit and acceptance tests."""


def pytest_configure(config):
    # Registered here rather than in pyproject.toml: resolving the category
    # imports scipy, and with it numpy, when pytest starts.  From pyproject
    # that happens before perfbench/conftest.py pins the BLAS pools to one
    # thread, which changes the benchmark tests' trajectories.
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")
    # Overflow, invalid values and division by zero inside a solve fail the
    # test that hit them instead of passing with a warning.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
