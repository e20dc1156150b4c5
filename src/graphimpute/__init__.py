"""Imputation of sparse unary patient-event matrices via bipartite message passing.

Import the submodule you need (``graphimpute.experiment``, ``graphimpute.cli``,
...). The package itself loads nothing, so the CLI can set thread counts
before any numerical library loads.
"""

__version__ = "0.1.0"
