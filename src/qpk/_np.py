"""numpy, imported on first use: modules take it as ``from . import _np as np``,
so a process whose solves stay scalar never imports numpy. Each name is fetched
once and then stored here, so later lookups cost what a module attribute does."""


def __getattr__(name: str):
    import numpy
    value = globals()[name] = getattr(numpy, name)
    return value
