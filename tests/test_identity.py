"""The identity harness, scripts/identity.py, on its quick families."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", SCRIPT)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


@pytest.fixture(scope="module")
def quick():
    """The canonical value of every quick family."""
    return {name: identity.canonical(identity.FAMILIES[name]()) for name in identity.QUICK}


def _last_float_path(canon, path=()):
    """Where the last float of a canonical value sits: in a mapping, a value comes after its key."""
    if isinstance(canon, float):
        return path
    if isinstance(canon, list):
        for i in reversed(range(len(canon))):
            found = _last_float_path(canon[i], path + (i,))
            if found is not None:
                return found
    return None


def test_a_one_ulp_change_moves_that_family_digest_and_no_other(quick):
    digests = {name: identity.digest(canon) for name, canon in quick.items()}
    for name, canon in quick.items():
        path = _last_float_path(canon)
        assert path is not None, f"{name} holds no float"
        *outer, last = path
        holder = canon
        for i in outer:
            holder = holder[i]
        value = holder[last]
        holder[last] = math.nextafter(value, math.inf)
        try:
            moved = {other: identity.digest(c) for other, c in quick.items()}
        finally:
            holder[last] = value
        assert [other for other in digests if moved[other] != digests[other]] == [name]


def test_digests_repeat_in_process_and_in_a_fresh_interpreter(quick):
    digests = {name: {"digest": identity.digest(canon)} for name, canon in quick.items()}
    assert identity.collect(identity.QUICK) == digests
    names = list(identity.QUICK[:2])
    assert identity._collect_in_child(SCRIPT.parents[1] / "src", names) == {name: digests[name] for name in names}


def test_a_family_that_cannot_run_is_absent(monkeypatch):
    def missing():
        from qtelescopy.protocols import a_name_that_is_not_there  # noqa: F401

    monkeypatch.setitem(identity.FAMILIES, "missing", missing)
    (result,) = identity.collect(["missing"]).values()
    assert result["absent"].startswith("ImportError: cannot import name 'a_name_that_is_not_there'")
