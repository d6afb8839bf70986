"""The benchmark's trace sites against this tree.

`bench/tracing.py` wraps glp functions by module and attribute name. A
renamed or moved function breaks only traced benchmark runs, so this checks
here that every site still resolves and that leaving `instrument` puts every
original back.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_bench_trace_site_resolves_and_is_restored():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    sites = [(module_name, attr) for module_name, attr, *_ in tracing._sites(tracer)]
    originals = {site: _lookup(*site) for site in sites}
    assert all(callable(fn) for fn in originals.values())

    with tracing.instrument(tracer):
        for site in sites:
            wrapped = _lookup(*site)
            assert wrapped is not originals[site], site
            assert inspect.unwrap(wrapped) is inspect.unwrap(originals[site]), site

    assert {site: _lookup(*site) for site in sites} == originals
