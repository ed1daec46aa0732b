"""Random integer matrices for the tests.

No `cosimplex` module draws at random, so that its JSON output depends
only on the request; a test that wants a spread of matrices draws them
here, from a seeded `random.Random`."""

from cosimplex.linalg import Matrix


def random_matrix(rng, rows: int, cols: int) -> Matrix:
    """A matrix of integer entries drawn uniformly from -2..2."""
    return Matrix.from_rows([[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])
