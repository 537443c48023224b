"""Build a value again through its constructor, so its caches start empty."""

import inspect


def rebuilt(value, **changes):
    """A new value of the same class: each constructor parameter is read off
    `value` under its own name, unless `changes` gives it."""
    params = {name: getattr(value, name) for name in inspect.signature(type(value)).parameters}
    unknown = set(changes) - set(params)
    if unknown:
        raise TypeError(f"{type(value).__name__} takes no parameter {sorted(unknown)}")
    return type(value)(**{**params, **changes})
