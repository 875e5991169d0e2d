"""Waiting times and putative-hit statistics for k-mers under single-step
substitution evolution."""

# perfbench/tracing.py wraps the functions of each traced module it finds in
# sys.modules, and the benchmark imports only automata, evolution and oracle
from . import languages  # noqa: F401

__version__ = "0.1.0"
