"""Integration domains."""

import gc
import importlib
import sys
import weakref


def _is_varlp(name):
    return name == "varlp" or name.startswith("varlp.")


def test_reimported_domain_classes_are_freed():
    # the Domain alias must not pin its classes in a process-wide cache:
    # every re-import of varlp would keep the old geometry module alive
    live = {n: m for n, m in sys.modules.items() if _is_varlp(n)}
    refs = []
    try:
        for _ in range(3):
            for name in [n for n in sys.modules if _is_varlp(n)]:
                del sys.modules[name]
            geometry = importlib.import_module("varlp.geometry")
            refs += [weakref.ref(cls) for cls in
                     (geometry.Ball, geometry.DyadicRing, geometry.FullLine)]
            del geometry
    finally:
        for name in [n for n in sys.modules if _is_varlp(n)]:
            del sys.modules[name]
        sys.modules.update(live)
    gc.collect()
    assert refs and all(ref() is None for ref in refs)
