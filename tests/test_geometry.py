"""Integration domains."""

import gc
import importlib
import math
import sys
import weakref

import pytest

from varlp import FULL_LINE, Ball, DyadicRing
from varlp.norms import _components


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


# (inner, outer, the open intervals a norm's exponent is read on): the
# whole line has radii 0 and inf like a ball of infinite radius
DOMAINS = {
    "ball": (Ball(2.0), 0.0, 2.0, [(-2.0, 2.0)]),
    "ring": (DyadicRing(1), 1.0, 2.0, [(-2.0, -1.0), (1.0, 2.0)]),
    "ring_negative_k": (DyadicRing(-1), 0.25, 0.5, [(-0.5, -0.25), (0.25, 0.5)]),
    "line": (FULL_LINE, 0.0, math.inf, [(-math.inf, math.inf)]),
}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_every_domain_carries_its_radii(name):
    domain, inner, outer, components = DOMAINS[name]
    assert (domain.inner, domain.outer) == (inner, outer)
    assert _components(domain) == components


@pytest.mark.parametrize("k", [1024, 1080, 10 ** 6, -1074, -1080, -10 ** 6])
def test_a_ring_whose_radii_are_not_positive_finite_floats_is_refused(k):
    # 2^k overflows for k >= 1024 and 2^(k-1) underflows to 0 for k <= -1074
    with pytest.raises(ValueError, match=f"k={k}$"):
        DyadicRing(k)


@pytest.mark.parametrize("k", [-1073, 1023])
def test_the_outermost_rings_have_positive_finite_radii(k):
    ring = DyadicRing(k)
    assert 0.0 < ring.inner < ring.outer < math.inf
    assert ring.outer == 2.0 * ring.inner and 0.0 < ring.measure < math.inf

