"""Privacy-preserving punch cards.

A loyalty card a server can punch and later verify without ever being able
to tell one customer's card from another's. The single-group scheme lives
in `core`, the pairing-based variant whose cards can be combined at
redemption in `mergeable`, and promotions (multi-punch, expiry, pickup
claims, per-slot tickets) in `extensions`.
"""

__version__ = "0.1.0"
