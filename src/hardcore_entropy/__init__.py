"""Entropy lower bounds for the hard-core model on 2-D lattices."""

__version__ = "0.1.0"
