"""Collapse-and-revival visibility toolkit for qubit-oscillator systems.

Closed-form visibility curves, a truncated-Fock Lindblad engine for the
conditional-displacement protocols (basic, boosted, spin-echo), a separable
channel monotonicity verifier, and a lab-parameter feasibility calculator.
"""

__version__ = "0.1.0"
