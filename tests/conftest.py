"""Shared fixtures: keep the artifact store hermetic under test.

The persistent store defaults to ``~/.cache/repro-store``; a test run must
neither read a developer's warm cache (it could mask regressions in the
code generators) nor pollute it.  Every test therefore runs against a
throwaway store root unless it explicitly builds its own
:class:`~repro.store.core.ArtifactStore`, and so does every module- or
class-scoped fixture, which pytest sets up before any function-scoped one.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_session(tmp_path_factory):
    from repro.store.core import set_default_store

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_STORE_DIR", str(tmp_path_factory.mktemp("repro-store")))
        patch.delenv("REPRO_STORE_DISABLE", raising=False)
        set_default_store(None)
        yield
    set_default_store(None)


@pytest.fixture(autouse=True)
def _hermetic_store(tmp_path, monkeypatch):
    from repro.store.core import set_default_store

    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "repro-store"))
    monkeypatch.delenv("REPRO_STORE_DISABLE", raising=False)
    set_default_store(None)  # force re-creation from the patched env
    yield
    set_default_store(None)
