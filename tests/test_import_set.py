"""The import set: importing the package root loads the fields, the tables
and the engines only, and every other root name loads its module on first
access; a table command run as a program loads neither the integral
driver nor the exact suite.  Each check runs in a fresh interpreter,
since this process has imported every module long before."""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# Where each name of gtransform.__all__ is defined.
HOMES = {
    "scalars": ["CountingField", "FloatField", "ParseError", "RationalField"],
    "tables": ["ArgumentError", "Entry", "EntryStatus", "ExtrapolationTable",
               "InitializationError", "SequencePair"],
    "engines": ["METHODS", "accelerate", "build_qd_table", "run_epsilon",
                "run_fs_qd", "run_rs", "shanks_prepare"],
    "quadrature": ["QuadratureConfig", "g_transform", "make_spec", "sample_F"],
    "opbench": ["bench_method", "bench_on"],
    "crosscheck": ["run_equivalence_suite"],
}

# Runs in the fresh interpreter; prints one JSON object.
PROBE = """
import importlib, json, sys
import gtransform
loaded = sorted(m for m in sys.modules
                if m == "gtransform" or m.startswith("gtransform."))
star = {}
exec("from gtransform import *", star)
homes = json.loads(sys.argv[1])
mismatched = [name for mod, names in homes.items() for name in names
              if not (star[name] is getattr(gtransform, name)
                      is getattr(importlib.import_module("gtransform." + mod),
                                 name))]
try:
    gtransform.no_such_name
    missing_raises = False
except AttributeError:
    missing_raises = True
print(json.dumps({
    "loaded": loaded,
    "all": gtransform.__all__,
    "unbound_by_star": [n for n in gtransform.__all__ if n not in star],
    "mismatched": mismatched,
    "not_in_dir": sorted(set(gtransform.__all__) - set(dir(gtransform))),
    "missing_raises": missing_raises,
}))
"""


def _run(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _strict_json(out: str):
    def refuse(token):
        raise AssertionError(f"non-finite token {token} in the output")

    return json.loads(out, parse_constant=refuse)


def test_root_loads_the_engines_and_resolves_the_rest_on_first_use():
    proc = _run(["-c", PROBE, json.dumps(HOMES)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["loaded"] == ["gtransform", "gtransform.engines",
                             "gtransform.scalars", "gtransform.tables"]
    homed = sorted(n for names in HOMES.values() for n in names)
    assert sorted(doc["all"]) == sorted(homed + ["__version__"])
    assert doc["unbound_by_star"] == []
    assert doc["mismatched"] == []
    assert doc["not_in_dir"] == []
    assert doc["missing_raises"] is True


def _imported(importtime_err: str):
    """Module names from the -X importtime lines on stderr."""
    return {line.rpartition("|")[2].strip()
            for line in importtime_err.splitlines()
            if line.startswith("import time:")}


def test_each_cli_command_imports_what_it_runs(tmp_path):
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"A": [1.0, 1.5, 1.75],
                               "u": [1.0, 0.5, 0.25, 0.125, 0.0625]}))
    table = _run(["-X", "importtime", "-m", "gtransform.cli", "table",
                  "--input", str(seq), "--method", "fsqd"])
    assert table.returncode == 0, table.stderr
    assert _strict_json(table.stdout)["L"] == 2
    imported = _imported(table.stderr)
    assert "gtransform.engines" in imported
    assert imported.isdisjoint({"gtransform.crosscheck", "gtransform.oracle",
                                "gtransform.quadrature"})

    for argv in (["check", "--L", "2", "--cases", "2"],
                 ["integrate", "--integrand", "sinc", "--x", "1",
                  "--n-max", "4"]):
        proc = _run(["-m", "gtransform.cli", *argv])
        assert proc.returncode == 0, (argv, proc.stderr)
        _strict_json(proc.stdout)
