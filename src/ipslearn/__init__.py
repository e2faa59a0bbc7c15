"""Simulation and online parameter estimation for interacting particle systems."""

__version__ = "0.1.0"
