"""Simulation and inference toolkit for AR(1) processes with a near-unit
mean root and nearly nonstationary lognormal stochastic volatility.  The
modules are the API (`from dl2u import dgp`); importing the package loads none."""

__version__ = "0.1.0"
