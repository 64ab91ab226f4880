"""The dataflow lint rules: every RPR5xx/6xx/702 rule on seeded fixtures.

Mirrors test_lint.py's pattern: write a small fixture tree into
``tmp_path``, lint it, assert the expected code fires at the expected
line — and, just as important, that the *good* variants right next to
each violation stay quiet.
"""

import textwrap

from repro.analysis import run_lint


def lint_tree(tmp_path, files):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)])


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- RPR501: escaping mmap views ------------------------------------------------

VIEW_FIXTURE = """
    from repro.codecs.container import mmap_view

    def leak_view(path):
        view = mmap_view(path)
        payload = view[16:]
        return payload  # derived view escapes without the map

    def alias_leaks_too(path):
        view = mmap_view(path)
        payload = view[16:]
        alias = payload
        return alias

    def direct_slice_leaks(path):
        view = mmap_view(path)
        return view[16:]

    def root_transfer_ok(path):
        view = mmap_view(path)
        return view  # root carries the map in .obj: ownership transfer

    def bytes_ok(path):
        view = mmap_view(path)
        return bytes(view[16:])  # materialised copy

    def tuple_with_owner_ok(path):
        view = mmap_view(path)
        payload = view[16:]
        return view, payload  # owner co-escapes
"""


def test_rpr501_escaping_views(tmp_path):
    findings = lint_tree(tmp_path, {"views.py": VIEW_FIXTURE})
    fired = by_rule(findings, "RPR501")
    assert sorted(f.line for f in fired) == [7, 13, 17]
    assert all("mmap-backed" in f.message for f in fired)
    # None of the three *_ok functions fired anything.
    assert not [f for f in findings if f.line > 17]


# -- RPR502: stashed view without owner -----------------------------------------

STASH_FIXTURE = """
    from repro.codecs.container import mmap_view

    class Leaky:
        def load(self, path):
            view = mmap_view(path)
            self._payload = view[8:]  # map pinned, no handle to close it

    class Owning:
        def load(self, path):
            view = mmap_view(path)
            self._view = view
            self._payload = view[8:]  # fine: the root is stored too
"""


def test_rpr502_stash_without_owner(tmp_path):
    findings = lint_tree(tmp_path, {"stash.py": STASH_FIXTURE})
    (finding,) = by_rule(findings, "RPR502")
    assert finding.line == 7
    assert "without also stashing" in finding.message


# -- RPR601: close on all paths -------------------------------------------------

RELEASE_FIXTURE = """
    import os

    def leaky(path, flag):
        fh = open(path, "rb")
        if flag:
            return None  # fh leaks on this branch
        data = fh.read()
        fh.close()
        return data

    def closed_in_finally(path):
        fh = open(path, "rb")
        try:
            return fh.read()
        finally:
            fh.close()

    def with_statement_ok(path):
        with open(path, "rb") as fh:
            return fh.read()

    def handoff_return_ok(path):
        fh = open(path, "rb")
        return fh  # caller owns it now

    def handoff_store_ok(self, path):
        fh = open(path, "rb")
        self._fh = fh  # the object owns it now

    def handoff_call_ok(path):
        fd = os.open(path, os.O_RDONLY)
        return os.fdopen(fd)  # fdopen adopts the descriptor

    def acquisition_may_raise_ok(path):
        fh = open(path, "rb")  # if open() raises there is nothing to close
        data = fh.read()
        fh.close()
        return data
"""


def test_rpr601_leak_on_one_path(tmp_path):
    findings = lint_tree(tmp_path, {"release.py": RELEASE_FIXTURE})
    (finding,) = by_rule(findings, "RPR601")
    assert finding.line == 5
    assert "'fh' = open(...)" in finding.message


# -- RPR602: use after close ----------------------------------------------------

UAC_FIXTURE = """
    def use_after_close(path):
        fh = open(path, "rb")
        fh.close()
        return fh.read()

    def close_then_rebind_ok(path):
        fh = open(path, "rb")
        fh.close()
        fh = open(path, "rb")
        data = fh.read()
        fh.close()
        return data

    def closed_check_ok(path):
        fh = open(path, "rb")
        fh.close()
        assert fh.closed  # .closed / double close are harmless
        fh.close()
        return fh is None
"""


def test_rpr602_use_after_close(tmp_path):
    findings = lint_tree(tmp_path, {"uac.py": UAC_FIXTURE})
    fired = by_rule(findings, "RPR602")
    assert [f.line for f in fired] == [5]
    assert "after fh.close() (line 4)" in fired[0].message


# -- RPR702: bare acquire -------------------------------------------------------

BARE_FIXTURE = """
    def bare(my_lock):
        my_lock.acquire()
        return 1

    def released_in_finally(my_lock):
        my_lock.acquire()
        try:
            return 1
        finally:
            my_lock.release()

    def not_a_lock(conn):
        conn.acquire()  # no "lock" in the name: out of scope
        return 1
"""


def test_rpr702_bare_acquire(tmp_path):
    findings = lint_tree(tmp_path, {"bare.py": BARE_FIXTURE})
    (finding,) = by_rule(findings, "RPR702")
    assert finding.line == 3
    assert "my_lock.acquire()" in finding.message


def test_package_is_dataflow_clean(package_findings):
    """Zero dataflow findings on src/repro."""
    dataflow = [f for f in package_findings if f.rule >= "RPR500"]
    assert dataflow == [], [f.render() for f in dataflow]
