"""Privacy-preserving contact tracing on a simulated confidential backend.

Devices broadcast rolling identifiers and keep a local contact log. The
backend runs inside a (simulated) trusted execution environment: clients
verify its measurement through platform-signed attestation quotes, talk to
it only over authenticated encrypted envelopes, and its persistent state is
sealed to the measurement. Positive users, authorized by a health-authority
signed test result, upload their contact log (or a secret that derives their
identifiers); everyone else polls for matches, and polls leave no trace.
"""

__version__ = "0.1.0"


class CheckedValue:
    """Base of the named tuples whose `__new__` checks their fields.

    List it before the fields tuple, so its `_make` is the one found.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and _replace through it) would skip the checks
        return cls(*iterable)
