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

# how a value built in code is refused for each kind a field may declare
_NOUNS = {int: "an integer", bool: "a boolean", float: "a number", str: "a string", bytes: "bytes"}
_KINDS = {kind.__name__: kind for kind in _NOUNS}


def is_kind(value, kind: type) -> bool:
    """The one field rule of checked values and of the files they are read
    from: `value` is exactly a `kind`, except that an int passes for a float
    (a bool is neither)."""
    return type(value) is kind or (kind is float and type(value) is int)


class CheckedValue:
    """Base of the named tuples whose `__new__` checks their fields.

    A field declared `int`, `bool`, `float`, `str` or `bytes`, optionally
    `| None`, is refused unless it holds that kind (`is_kind`), before the
    type's own checks. List it before the fields tuple, so its `__new__` and
    `_make` are found.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # read once per class, from the fields tuple, which keeps a postponed
        # annotation as a ForwardRef: (index, kind, optional, refusal) per field
        fields = next(base for base in cls.__mro__ if "_fields" in vars(base))
        kinds = []
        for index, (name, annotation) in enumerate(fields.__annotations__.items()):
            text = getattr(annotation, "__forward_arg__", annotation)
            kind, _, rest = getattr(text, "__name__", str(text)).partition(" | ")
            if kind in _KINDS and rest in ("", "None"):
                kind = _KINDS[kind]
                kinds.append((index, kind, rest == "None", f"{name} must be {_NOUNS[kind]}"))
        cls._kinds = tuple(kinds)

    def __new__(cls, *args, **kwargs):
        # the fields tuple's __new__ fills in the defaults
        return super().__new__(cls, *args, **kwargs)._checked()

    def _checked(self):
        """`self`, once each field declared as a kind holds one."""
        for index, kind, optional, refusal in self._kinds:
            if not is_kind(self[index], kind) and not (optional and self[index] is None):
                raise ValueError(refusal)
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and _replace through it) would skip the checks
        return cls(*iterable)
