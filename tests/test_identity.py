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


def test_deviation_reads_every_number_and_flags_the_structure():
    before = identity.canonical({"table": {(0, 1): 0.25, (1, 0): 0.75}, "file": "phi,crb\n0.7,1.0e-3\n"})
    after = identity.canonical({"table": {(0, 1): 0.25 + 1e-16, (1, 0): 0.75}, "file": "phi,crb\n0.7,1.1e-3\n"})
    largest, relative, same = identity.deviation(after, before)
    assert same and largest == pytest.approx(1e-4) and relative == pytest.approx(1e-4 / 1.1e-3)
    assert identity.deviation(before, before) == (0.0, 0.0, True)
    assert identity.deviation(identity.canonical([math.nan, math.inf]), identity.canonical([math.nan, math.inf])) == (0.0, 0.0, True)
    fewer = identity.canonical({"table": {(0, 1): 0.5}, "file": "phi,crb\n0.7,1.0e-3\n"})
    largest, relative, same = identity.deviation(fewer, before)
    assert not same and largest == 0.25 and relative == 0.5
    assert identity.deviation(identity.canonical(["phi,g\n"]), identity.canonical(["phi,crb\n"]))[2] is False
