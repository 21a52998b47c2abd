"""Exception types shared across the package, and the field-type check that
the config dataclasses run.

The CLI maps these onto process exit codes: ConfigError -> 2,
ShapeError/DomainError -> 3, FormatError (and OSError) -> 4.
"""

import functools
import math
import typing


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class DomainError(ValueError):
    """Numerically invalid input or result (zero norms, NaN/Inf, divergence)."""


class FormatError(ValueError):
    """A serialized artifact (RSDB / RSDE / RSCK / JSONL) is malformed."""


class ConfigError(ValueError):
    """Invalid run configuration. Carries every violation found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@functools.cache
def _field_types(cls) -> dict[str, tuple[type, ...]]:
    """Each field of the dataclass `cls` and the types its annotation
    allows, resolved once per class."""
    return {name: typing.get_args(hint) or (hint,) for name, hint in typing.get_type_hints(cls).items()}


def field_type_problems(config) -> list[str]:
    """One line per field of the dataclass instance `config` whose value
    does not have the annotated type. An int field takes an int but not a
    bool, a float field an int or a finite float, and `X | None` also takes
    None."""
    out = []
    for name, types in _field_types(type(config)).items():
        value = getattr(config, name)
        ok = isinstance(value, types) or (type(value) is int and float in types)
        if not ok or (type(value) is bool) != (bool in types):
            expected = " or ".join("None" if t is type(None) else t.__name__ for t in types)
            out.append(f"{name} must be {expected}, got {value!r}")
        elif isinstance(value, float) and not math.isfinite(value):
            out.append(f"{name} must be finite, got {value!r}")
    return out
