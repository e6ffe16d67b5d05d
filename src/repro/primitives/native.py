"""One native library, built on demand with the system C compiler.

The package's compiled code is a single C unit, compiled once into a
single shared object and loaded through ctypes.  It holds

- ``repro_parse_edges`` — the edge-list tokenizer behind the ``c``
  parser tier of :mod:`repro.graphs.ingest`;
- ``repro_compact64`` — ingest's first-seen hash id compactor;
- ``repro_peel`` — the Batagelj-Zaversnik min-degree peel behind
  :func:`repro.graphs.properties.peel_degeneracy`.

The build is keyed by a hash of the source and cached under
``$REPRO_CC_CACHE`` (default ``<tmpdir>/repro-cc-<uid>``), so it runs
once per source version and machine; concurrent builders race through
an atomic rename and agree on the result.  Nothing is compiled or
loaded at import time: the first :func:`function` call builds or opens
the library.  When no compiler is found, or the build or load fails,
:func:`function` returns None and every caller falls back to its
NumPy/Python implementation, which produces the same results.

The default cache sits at a predictable path in a shared temp dir, so
the library is loaded only from a directory this user owns and nobody
else can write (created ``0o700``), and only when the shared object is
a regular file with the same property; anything else — another user's
directory, a group- or world-writable one, a symlink — is refused and
the callers fall back as if there were no compiler.

This is a build cache, not a kernel tier: the tier registry in
:mod:`repro.primitives.tiers` (``auto|numpy|numba``) does not see it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading

CC_CACHE_ENV = "REPRO_CC_CACHE"

# repro_parse_edges makes one forward scan per chunk.  Bytes <= 0x20
# are separators (space, tab, CR, LF — matching str.split()); a line's
# first token starting with the comment byte skips the line; each kept
# line must open with two decimal tokens, anything after them is
# ignored (SNAP files carry timestamps/weights).  Errors return
# -(offset+1) and the caller re-parses the chunk on the Python tier so
# diagnostics (and the rare inputs int() accepts but this scanner does
# not, e.g. signed ids) match the legacy reader exactly.
#
# Tokens are converted eight digits at a time with the classic SWAR
# multiply-mask reduction (the per-digit x = x*10 + d chain is a serial
# multiply dependency and dominates a byte-at-a-time scanner).  The
# Python caller pads every buffer with 8 trailing spaces so the 8-byte
# loads below never run off the chunk.  Overflow checking is deferred:
# a token of <= 18 digits cannot overflow int64, so only 19+-digit
# tokens (after skipping leading zeros) pay a decimal string compare
# against INT64_MAX.
#
# repro_compact64 is the id-compaction sibling: one linear-probe pass
# over the parsed ids that assigns first-seen codes, against which the
# caller then applies a sorted-rank permutation to land on np.unique
# semantics without the O(k log k) argsort of the full value array.
#
# repro_peel is the exact transcription of properties._peel_python, so
# the removal order, coreness and degeneracy are bit-identical.
_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define DIE(pos) (-((long long)(pos) + 1))

/* INT64_MAX in decimal, for the deferred overflow check. */
static const unsigned char MAXDEC[19] = "9223372036854775807";

#if defined(__GNUC__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define REPRO_SWAR 1
#endif

#ifdef REPRO_SWAR
static inline uint64_t load8(const unsigned char *p)
{
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
}

/* 8 ASCII digits (first digit at the lowest address) -> value. */
static inline uint32_t parse8(uint64_t w)
{
    w = (w & 0x0F0F0F0F0F0F0F0FULL) * 2561 >> 8;
    w = (w & 0x00FF00FF00FF00FFULL) * 6553601 >> 16;
    return (uint32_t)((w & 0x0000FFFF0000FFFFULL) * 42949672960001ULL >> 32);
}

/* Per-byte high bit set where the byte is NOT an ASCII digit. */
static inline uint64_t nondigits(uint64_t w)
{
    uint64_t t = w ^ 0x3030303030303030ULL;
    uint64_t hi = t & 0x8080808080808080ULL;
    uint64_t gt = ((t & 0x7F7F7F7F7F7F7F7FULL) + 0x7676767676767676ULL)
                  & 0x8080808080808080ULL;
    return hi | gt;
}
#endif

/* Parse one decimal token at *ip (8 readable pad bytes past n).
   0 = ok (*out set, *ip past the token); -1 = no digits; -2 = overflow. */
static inline int token(const unsigned char *b, long long n, long long *ip,
                        int64_t *out)
{
    long long i = *ip, s = i, nd;
    uint64_t x = 0;
#ifdef REPRO_SWAR
    {
        uint64_t w = load8(b + i);
        uint64_t bad = nondigits(w);
        int len = bad ? (int)(__builtin_ctzll(bad) >> 3) : 8;
        if (len == 0)
            return -1;
        if (len < 8) {          /* whole token in one load: the hot path */
            w = (w << (8 * (8 - len))) | (0x3030303030303030ULL >> (8 * len));
            *out = (int64_t)parse8(w);
            *ip = i + len;
            return 0;
        }
        x = parse8(w);
        i += 8;
    }
#endif
    while (i < n) {
        unsigned c = (unsigned)b[i] - '0';
        if (c > 9)
            break;
        x = x * 10 + c;         /* uint64: wraps, checked below */
        i++;
    }
    nd = i - s;
    if (nd == 0)
        return -1;
    if (nd >= 19) {
        while (nd > 1 && b[s] == '0') { s++; nd--; }
        if (nd > 19 || (nd == 19 && memcmp(b + s, MAXDEC, 19) > 0))
            return -2;
    }
    *out = (int64_t)x;
    *ip = i;
    return 0;
}

long long repro_parse_edges(const unsigned char *b, long long n,
                            unsigned char comment,
                            int64_t *u, int64_t *v)
{
    long long i = 0, m = 0;
    while (i < n) {
        while (i < n && b[i] <= ' ') i++;        /* blank lines too */
        if (i >= n) break;
        if (b[i] == comment) {                   /* comment line */
            while (i < n && b[i] != '\n') i++;
            continue;
        }
        int64_t x, y;
        if (token(b, n, &i, &x)) return DIE(i);
        if (i < n && b[i] > ' ') return DIE(i);  /* junk glued to token */
        while (i < n && b[i] <= ' ' && b[i] != '\n') i++;
        if (i >= n || b[i] == '\n') return DIE(i);   /* one token only */
        if (token(b, n, &i, &y)) return DIE(i);
        if (i < n && b[i] > ' ') return DIE(i);
        u[m] = x; v[m] = y; m++;
        while (i < n && b[i] != '\n') i++;       /* trailing columns */
    }
    return m;
}

/* First-seen-order compaction of k non-negative ids.  keys (size tsize,
   a power of two, pre-filled with -1) and kcode are the caller's probe
   table; distinct values land in vocab in first-seen order, codes[j]
   gets vals[j]'s slot.  Returns the distinct count. */
long long repro_compact64(const int64_t *vals, long long k,
                          int64_t *keys, int32_t *kcode, long long tsize,
                          int64_t *vocab, int32_t *codes)
{
    const uint64_t mask = (uint64_t)tsize - 1;
    long long d = 0, j;
    for (j = 0; j < k; j++) {
        int64_t xv = vals[j];
        uint64_t h = (uint64_t)xv;
        h ^= h >> 33; h *= 0xff51afd7ed558ccdULL; h ^= h >> 33;
        h &= mask;
        while (keys[h] != -1 && keys[h] != xv)
            h = (h + 1) & mask;
        if (keys[h] == -1) {
            keys[h] = xv;
            kcode[h] = (int32_t)d;
            vocab[d] = xv;
            d++;
        }
        codes[j] = kcode[h];
    }
    return d;
}

/* Batagelj-Zaversnik O(n + m) min-degree peel (Matula-Beck order).
   deg holds the degrees on entry and the coreness on return; vert gets
   the removal order; pos (n) and bins (max_deg + 1) are scratch.
   vert is sorted by current degree, bins[d] is the first index of the
   degree-d bucket, and a decrement is an O(1) swap with the bucket
   head.  The caller checks that indptr/indices describe n rows with
   neighbor ids in [0, n).  Returns the degeneracy. */
long long repro_peel(long long n, const int64_t *indptr,
                     const int64_t *indices, long long max_deg,
                     int64_t *deg, int64_t *vert, int64_t *pos,
                     int64_t *bins)
{
    long long d, i, v, start = 0, best = 0;
    for (d = 0; d <= max_deg; d++)
        bins[d] = 0;
    for (v = 0; v < n; v++)
        bins[deg[v]]++;
    for (d = 0; d <= max_deg; d++) {
        long long c = bins[d];
        bins[d] = start;
        start += c;
    }
    for (v = 0; v < n; v++) {          /* stable: ascending id per bucket */
        pos[v] = bins[deg[v]]++;
        vert[pos[v]] = v;
    }
    for (d = max_deg; d > 0; d--)      /* fill pointers back to starts */
        bins[d] = bins[d - 1];
    bins[0] = 0;
    for (i = 0; i < n; i++) {
        int64_t w0 = vert[i], dv = deg[w0];
        int64_t j, hi = indptr[w0 + 1];
        if (dv > best)
            best = dv;
        for (j = indptr[w0]; j < hi; j++) {
            int64_t u = indices[j], du = deg[u];
            if (du > dv) {
                int64_t pu = pos[u], pw = bins[du], w = vert[pw];
                if (u != w) {
                    vert[pu] = w; vert[pw] = u;
                    pos[u] = pw; pos[w] = pu;
                }
                bins[du]++;
                deg[u] = du - 1;
            }
        }
    }
    return best;
}
"""

_P64 = ctypes.POINTER(ctypes.c_longlong)
_P32 = ctypes.POINTER(ctypes.c_int)
_LL = ctypes.c_longlong
_VP = ctypes.c_void_p

#: Python name -> (C symbol, restype, argtypes).
_SIGNATURES = {
    "parse": ("repro_parse_edges", _LL,
              [ctypes.c_char_p, _LL, ctypes.c_ubyte, _P64, _P64]),
    "compact": ("repro_compact64", _LL,
                [_P64, _LL, _P64, _P32, _LL, _P64, _P32]),
    # Buffers go in as raw addresses (``arr.ctypes.data``): the
    # ``data_as`` cast leaves a small reference cycle per pointer, and
    # the peel runs once per request.
    "peel": ("repro_peel", _LL,
             [_LL, _VP, _VP, _LL, _VP, _VP, _VP, _VP]),
}

_lock = threading.Lock()
_state: dict = {"funcs": None, "tried": False}


def cc_cache_dir() -> str:
    """Directory of the compiled library: ``$REPRO_CC_CACHE`` or a
    per-user directory under the system temp dir."""
    env = os.environ.get(CC_CACHE_ENV, "").strip()
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else "na"
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{uid}")


def find_compiler() -> str | None:
    """Path of the system C compiler, or None."""
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _private(path: str, is_dir: bool) -> bool:
    """True when ``path`` (not followed if a symlink) is a directory or
    regular file owned by this user and writable by nobody else."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    kind = stat.S_ISDIR if is_dir else stat.S_ISREG
    if not kind(st.st_mode) or st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        return False
    return not hasattr(os, "getuid") or st.st_uid == os.getuid()


def _build() -> dict | None:
    """Build (or reuse) the library and bind it; None when no toolchain
    or when the cache is not private to this user."""
    cc = find_compiler()
    if cc is None:
        return None
    tag = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:12]
    cdir = cc_cache_dir()
    so_path = os.path.join(cdir, f"repro-native-{tag}.so")
    os.makedirs(cdir, mode=0o700, exist_ok=True)
    if not _private(cdir, is_dir=True):
        return None
    if not os.path.exists(so_path):
        src = os.path.join(cdir, f"repro-native-{tag}.{os.getpid()}.c")
        tmp = os.path.join(cdir, f".repro-native-{tag}.{os.getpid()}.so")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        try:
            proc = subprocess.run(
                [cc, "-O3", "-fPIC", "-shared", "-o", tmp, src],
                capture_output=True, timeout=120)
        finally:
            os.unlink(src)
        if proc.returncode != 0:
            return None
        os.chmod(tmp, 0o755)  # whatever the umask: writable by us only
        os.replace(tmp, so_path)  # atomic: concurrent builders agree
    if not _private(so_path, is_dir=False):
        return None
    lib = ctypes.CDLL(so_path)
    funcs = {}
    for name, (symbol, restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, symbol)
        fn.restype = restype
        fn.argtypes = argtypes
        funcs[name] = fn
    return funcs


def function(name: str):
    """The bound C function ``name`` (a key of the signature table:
    ``parse``, ``compact`` or ``peel``), or None without a library.

    The first call in a process builds or opens the library; a failure
    is remembered, so later calls return None at once.
    """
    with _lock:
        if not _state["tried"]:
            _state["tried"] = True
            try:
                _state["funcs"] = _build()
            except (OSError, AttributeError, subprocess.SubprocessError):
                # Unwritable cache, compiler timeout, unloadable object:
                # every caller has a Python tier, so degrade, never fail.
                _state["funcs"] = None
        funcs = _state["funcs"]
    return funcs[name] if funcs else None


def reset() -> None:
    """Forget the loaded library, so the next :func:`function` call
    looks for a compiler and builds or opens it again."""
    with _lock:
        _state["funcs"] = None
        _state["tried"] = False
