"""No module in src/punchcard imports a name it never reads, an
installed package holds every module that the tests import, and a
serving process never loads OpenSSL.

A change that deletes code can leave an import behind that nothing reads
any more; this finds such imports with the standard library's ast alone.
A name counts as read where it appears as a Name node anywhere in the
module (the head of an attribute chain included) or in a string
annotation."""

import ast
import hashlib
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from punchcard.groups import base

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "punchcard"


def _imported(tree):
    """{bound name: line} for every import but those from __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _read(ast.parse(ann.value, mode="eval"))
    return names


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = _read(tree)
        unused += [
            f"{path.relative_to(SRC)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in read
        ]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "import os\nfrom typing import Any, Optional\n"
        "def f(x: 'Any') -> None:\n    return os.sep\n"
    )
    read = _read(tree)
    assert [name for name in _imported(tree) if name not in read] == ["Optional"]


def test_every_source_directory_is_a_package():
    """`pip install .` ([tool.setuptools.packages.find]) leaves out a
    directory without an __init__.py. With PYTHONPATH=src the tests would
    still import it, as a namespace package."""
    dirs = {path.parent for path in SRC.rglob("*.py")}
    missing = [d for d in dirs if not (d / "__init__.py").exists()]
    assert sorted(str(d.relative_to(SRC)) for d in missing) == []


def test_console_script_target_is_callable():
    """The [project.scripts] entry of pyproject.toml, read without tomllib
    (Python 3.10 has none), names a function that imports."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = re.findall(r'^[\w-]+\s*=\s*"([\w.]+):(\w+)"', section, re.M)
    assert targets == [("punchcard.cli", "main")]
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name))


# Serves a public key, two punches and a redemption in-process on
# ristretto255, from a store whose open replays a log into the tier, then
# prints whether anything loaded OpenSSL.
_SERVE = """
import os, random, sys
from punchcard import cli  # the server's entry point, and all it imports
from punchcard import core, wire
from punchcard.core import RedeemStatus
from punchcard.db import RedeemDb
from punchcard.service import Config, PunchcardService, store_path

cfg = Config(state_dir=sys.argv[1], group="ristretto255", accepted_counts=(2,), fsync=False)
os.makedirs(cfg.state_dir)
db = RedeemDb(store_path(cfg), fsync=False)
assert db.check_and_insert(os.urandom(32))
db.close()
svc = PunchcardService(cfg)
g, rng = svc.scheme.group, random.Random(193)
out_type, pk = svc.handle(wire.PK_REQ, b"")
assert out_type == wire.PK_RESP
secret, card = core.issue(g, rng)
for _ in range(2):
    out_type, body = svc.handle(wire.PUNCH_REQ, g.encode_element(card))
    assert out_type == wire.PUNCH_RESP
    resp = core.PunchResponse.from_bytes(g, body)
    secret, card = core.client_punch(g, g.decode_element(pk), secret, card, resp, rng)
req = core.client_redeem(g, secret, card)
body = wire.pack_redeem_body(2, req.to_bytes(g))
assert svc.handle(wire.REDEEM_REQ, body) == (wire.REDEEM_RESP, bytes([RedeemStatus.ACCEPT]))
assert len(svc.db) == 2
svc.db.close()
with open("/proc/self/maps") as f:
    mapped = [line.split()[-1] for line in f if "libcrypto" in line]
print(sorted(m for m in sys.modules if "hashlib" in m), sorted(set(mapped)))
"""


def _python(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
def test_a_serving_process_never_maps_openssl(tmp_path):
    """hashlib, hmac and secrets import _hashlib, which maps OpenSSL's
    libcrypto (about 3.7 MB resident) for digests and a compare that
    CPython has built in; the server takes those from groups.base, so a
    process that imports the CLI and serves every main-scheme message
    loads neither."""
    assert _python(_SERVE, str(tmp_path / "state")) == "[] []\n"


def test_the_hashlib_fallback_gives_the_built_in_digests():
    """Where CPython lacks its built-in SHA-2 modules, groups.base takes
    hashlib's functions, which give the same digests."""
    data = [b"", b"x" * 40, bytes(range(256)) * 2, b"punch" * 1000]
    script = (
        "import sys\n"
        "for m in ('_sha2', '_sha512', '_sha256'):\n"
        "    sys.modules[m] = None\n"
        "import hashlib\n"
        "from punchcard.groups import base\n"
        "assert (base.sha512, base.sha256) == (hashlib.sha512, hashlib.sha256)\n"
        f"for d in {data!r}:\n"
        "    print(base.sha512(d).hexdigest(), base.sha256(d).hexdigest(),"
        " base.wide_hash('tag', d).hex())\n"
    )
    built_in = "".join(
        f"{base.sha512(d).hexdigest()} {base.sha256(d).hexdigest()} "
        f"{base.wide_hash('tag', d).hex()}\n" for d in data
    )
    assert base.sha512.__module__ != "_hashlib" and base.sha256.__module__ != "_hashlib"
    assert _python(script) == built_in
    assert [base.sha512(d).digest() for d in data] == [hashlib.sha512(d).digest() for d in data]
