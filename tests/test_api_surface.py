"""Every defaulted parameter the package exports, in one table.

A parameter with a default is a setting a caller may change without being
asked to.  The table lists every one on the callables exported from
``wiretapcodes`` and on the public methods of its exported classes, so a
new setting is added here on purpose.
"""

import inspect

import wiretapcodes

# name -> {parameter: repr(default)}; callables without defaults are absent
DEFAULTED = {
    "EquivocationEstimate": {"detail": "<factory>"},
    "LinearCode": {"span": "None"},
    "ThresholdResult": {"detail": "<factory>"},
    "bec_bp_threshold": {"tol": "1e-06"},
    "empirical_bp_threshold_awgn": {"max_iters": "200"},
}


def exported_callables():
    """``(name, callable)`` for each exported function and class, and for
    each public method of an exported class as ``Class.method``."""
    for name in dir(wiretapcodes):
        obj = getattr(wiretapcodes, name)
        if name.startswith("_") or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def defaulted(func) -> dict:
    params = inspect.signature(func).parameters.values()
    return {p.name: repr(p.default) for p in params if p.default is not p.empty}


def test_every_defaulted_parameter_is_in_the_table():
    found = {}
    for name, func in exported_callables():
        if params := defaulted(func):
            found[name] = params
    assert found == DEFAULTED


def test_enumeration_reaches_functions_classes_and_methods():
    names = {name for name, _ in exported_callables()}
    assert {"wilson_interval", "NestedCodePair", "RegionPolygon.contains",
            "BitMatrix.from_dense", "DegreeDistribution.regular"} <= names
