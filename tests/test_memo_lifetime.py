"""A memo lives exactly as long as its owner (`algebra.cached`): nothing
the package computes for a module keeps that module alive from a
longer-lived object, such as its algebra, the corpus or a module-level
cache."""

import gc
import weakref

from quivhom.complexes import hom_d_dim, module_complex
from quivhom.corpus import corpus
from quivhom.gorenstein import is_gorenstein_projective
from quivhom.homological import decompose, dual, ext, strip_projectives, syzygy, transpose
from quivhom.modules import Representation


class Probe:
    """An object that a weak reference can follow, kept in a module's `_cache`."""


def _probe_a_module_put_through_every_memo():
    c = corpus(1)
    src, other = c.S_P[1], c.S_P[0]
    m = Representation(src.algebra, src.dims, src.mats)
    probe = Probe()
    m._cache["probe"] = probe
    assert ext(m, other, 1) == ext(src, other, 1) and ext(other, m, 1) == ext(other, src, 1)
    assert [k for _, k in decompose(m)] == [k for _, k in decompose(src)]
    assert dual(m).dims == dual(src).dims and transpose(m).dims == transpose(src).dims
    assert strip_projectives(m)[0].dims == strip_projectives(src)[0].dims
    assert syzygy(m, 2).dims == syzygy(src, 2).dims
    assert hom_d_dim(module_complex(m), module_complex(other), 0) == hom_d_dim(module_complex(src), module_complex(other), 0)
    assert hom_d_dim(module_complex(other), module_complex(m), 1) == hom_d_dim(module_complex(other), module_complex(src), 1)
    assert is_gorenstein_projective(m, 8).verdict == is_gorenstein_projective(src, 8).verdict
    return weakref.ref(probe)


def test_a_module_is_freed_with_its_memos():
    """A fresh copy of a corpus module over Lambda, put through Ext both
    ways, `decompose`, `dual`, `transpose`, `strip_projectives`, `syzygy`,
    derived Hom both ways and a GP verdict (an Ext row against the regular
    module), is freed once dropped.  `stable_image` is left out: the
    functor's `_apply_cache` keeps its argument for the functor's lifetime."""
    probe = _probe_a_module_put_through_every_memo()
    gc.collect()
    assert probe() is None
