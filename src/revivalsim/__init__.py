"""Collapse-and-revival visibility toolkit for qubit-oscillator systems.

Closed-form visibility curves (`analytic`), a truncated-Fock Lindblad engine
for the conditional-displacement protocols (basic, boosted, spin-echo;
`lindblad`), whose parameters, Fock-dim rule, caps and errors `protocol`
holds, a separable channel monotonicity verifier (`witness`), and a
lab-parameter feasibility calculator (`design`).
"""

__version__ = "0.1.0"
