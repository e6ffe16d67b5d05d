"""Tests for the shared native library (repro.primitives.native).

The C peel must return the Python peel's PeelResult bit for bit; with
no compiler every native caller (the peel, ingest's tokenizer and id
compactor) falls back to its Python/NumPy tier with identical results;
and importing the package must neither compile nor load the library.
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphs.builders import empty_graph, from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    complete_graph,
    kronecker,
    path_graph,
    planted_kcore,
    star,
)
from repro.graphs.ingest import compact_ids, ingest_report
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.properties import _peel_c, _peel_python, peel_degeneracy
from repro.primitives import native

from .conftest import graphs

needs_cc = pytest.mark.skipif(native.find_compiler() is None,
                              reason="no C compiler on this host")


def _assert_same_peel(a, b):
    np.testing.assert_array_equal(a.order, b.order)
    np.testing.assert_array_equal(a.coreness, b.coreness)
    assert a.order.dtype == b.order.dtype == np.int64
    assert a.coreness.dtype == b.coreness.dtype == np.int64
    assert a.degeneracy == b.degeneracy
    assert type(a.degeneracy) is int and type(b.degeneracy) is int


@pytest.fixture
def no_compiler(monkeypatch):
    """The shared builder finds no compiler; the real library is
    reloaded afterwards so later tests see the normal state."""
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    native.reset()
    yield
    monkeypatch.undo()
    native.reset()


EDGE_CASES = {
    "empty": empty_graph(0),
    "isolated": empty_graph(7),
    "isolated_plus_edge": from_edges([2], [5], n=9),
    "star": star(40),
    "clique": complete_graph(9),
    "path": path_graph(25),
    "planted_core": planted_kcore(60, 6, seed=2),
    "kronecker": kronecker(10, 8, seed=3),
}


@needs_cc
class TestPeelParity:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_cases(self, name):
        g = EDGE_CASES[name]
        got = peel_degeneracy(g)
        _assert_same_peel(got, _peel_python(g))
        if g.n:
            assert _peel_c(g) is not None  # the native path really ran

    @given(graphs(max_n=40, max_m=200))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, g):
        c = _peel_c(g)
        assert c is not None
        _assert_same_peel(c, _peel_python(g))

    def test_memmapped_read_only_arrays(self, tmp_path):
        # Warm ingest-cache loads hand the peel read-only memmaps.
        g = kronecker(9, 8, seed=5)
        np.save(tmp_path / "p.npy", g.indptr)
        np.save(tmp_path / "i.npy", g.indices)
        mm = CSRGraph(np.load(tmp_path / "p.npy", mmap_mode="r"),
                      np.load(tmp_path / "i.npy", mmap_mode="r"))
        _assert_same_peel(_peel_c(mm), _peel_python(g))

    def test_out_of_range_ids_refused(self):
        bad = CSRGraph(np.array([0, 1, 2], dtype=np.int64),
                       np.array([1, 5], dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            _peel_c(bad)

    def test_inconsistent_indptr_refused(self):
        bad = CSRGraph(np.array([0, 3, 2], dtype=np.int64),
                       np.array([1, 0], dtype=np.int64))
        with pytest.raises(ValueError, match="indptr"):
            _peel_c(bad)


class TestNoCompilerFallback:
    def test_peel_falls_back_identically(self, no_compiler):
        g = kronecker(10, 8, seed=4)
        assert _peel_c(g) is None
        _assert_same_peel(peel_degeneracy(g), _peel_python(g))

    def test_ingest_falls_back_identically(self, tmp_path, no_compiler):
        g = kronecker(9, 8, seed=6)
        path = str(tmp_path / "k.el")
        write_edge_list(g, path)
        got, report = ingest_report(path, cache=False)
        assert report["parser_used"] != "c"
        # The legacy reader is the C tier's digest oracle too.
        assert got.content_digest == read_edge_list(path).content_digest
        sparse = np.random.default_rng(1).integers(0, 2 ** 40, 500)
        vocab, inv = compact_ids(sparse)
        ids, ref = np.unique(sparse, return_inverse=True)
        np.testing.assert_array_equal(vocab, ids)
        np.testing.assert_array_equal(inv, ref)

    def test_failed_build_falls_back(self, tmp_path, monkeypatch,
                                     no_compiler):
        # A "compiler" that exits non-zero: no library, no exception,
        # and nothing half-written left in the cache.
        false = shutil.which("false")
        if false is None:
            pytest.skip("no `false` executable")
        monkeypatch.setattr(native, "find_compiler", lambda: false)
        monkeypatch.setenv(native.CC_CACHE_ENV, str(tmp_path))
        g = kronecker(8, 8, seed=1)
        _assert_same_peel(peel_degeneracy(g), _peel_python(g))
        assert native.function("parse") is None
        assert os.listdir(tmp_path) == []

    def test_failure_is_remembered(self, monkeypatch, no_compiler):
        calls = []
        monkeypatch.setattr(native, "find_compiler",
                            lambda: calls.append(1))
        assert native.function("peel") is None
        assert native.function("parse") is None
        assert len(calls) == 1


@needs_cc
def test_one_library_holds_every_function(tmp_path, monkeypatch):
    monkeypatch.setenv(native.CC_CACHE_ENV, str(tmp_path))
    native.reset()
    try:
        for name in ("parse", "compact", "peel"):
            assert native.function(name) is not None
        built = sorted(os.listdir(tmp_path))
        assert len(built) == 1 and built[0].endswith(".so"), built
    finally:
        monkeypatch.undo()
        native.reset()


@needs_cc
class TestPrivateCache:
    """The library is loaded only from a cache nobody else can write;
    otherwise every caller falls back as if there were no compiler."""

    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        cdir = tmp_path / "cc"
        monkeypatch.setenv(native.CC_CACHE_ENV, str(cdir))
        native.reset()
        yield cdir
        monkeypatch.undo()
        native.reset()

    @staticmethod
    def _assert_refused():
        assert native.function("peel") is None
        g = kronecker(8, 8, seed=2)
        _assert_same_peel(peel_degeneracy(g), _peel_python(g))

    def test_new_cache_is_private(self, cache):
        assert native.function("peel") is not None
        assert (cache.stat().st_mode & 0o777) == 0o700
        (so,) = cache.iterdir()
        assert so.stat().st_mode & 0o022 == 0

    def test_foreign_owned_cache_refused(self, cache, monkeypatch):
        cache.mkdir(mode=0o700)
        monkeypatch.setattr(native.os, "getuid",
                            lambda: cache.stat().st_uid + 1)
        self._assert_refused()
        assert list(cache.iterdir()) == []  # nothing compiled into it

    def test_world_writable_cache_refused(self, cache):
        cache.mkdir()
        cache.chmod(0o777)
        self._assert_refused()
        assert list(cache.iterdir()) == []

    def test_symlinked_cache_refused(self, cache, tmp_path):
        real = tmp_path / "real"
        real.mkdir(mode=0o700)
        cache.symlink_to(real)
        self._assert_refused()

    def test_group_writable_library_refused(self, cache):
        assert native.function("peel") is not None
        (so,) = cache.iterdir()
        so.chmod(0o775)
        native.reset()
        self._assert_refused()


def test_import_neither_compiles_nor_loads(tmp_path):
    cache = tmp_path / "cc"
    code = (
        "import os, repro, repro.cli, repro.graphs.properties\n"
        "from repro.primitives import native\n"
        "assert not native._state['tried'], native._state\n"
        "if os.path.exists('/proc/self/maps'):\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        assert 'repro-native' not in fh.read()\n"
    )
    env = dict(os.environ, REPRO_CC_CACHE=str(cache))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
        + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not cache.exists()
