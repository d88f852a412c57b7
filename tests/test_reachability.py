"""Every package function that no command reaches is named in ALLOWED,
each with the reason it stays.

The probe runs in a fresh interpreter, so calls made at import time
count: it sets a profile hook, imports the package, and runs through the
command entry point every construct, play and verify golden, every eval
golden case and the acceptance suite.  A function it never enters that
ALLOWED does not name fails the test, and so does a name in ALLOWED that
is now entered or no longer defined.  Functions are defs and lambdas,
nested ones under their qualified names; comprehensions and class bodies
are not counted.  Run this file as a script to print the probe's list.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

TRACER = "bound by perfbench/tracer.py, goes with ROADMAP item 6"
HAND_WRITTEN = ("a base Strategy default for hand-written players; every "
                "shipped player overrides it")
RECORDS = "record API pinned by test_records"

ALLOWED = {
    "__init__.__getattr__": "lazy `from limsupgames import entry`, pinned "
                            "by test_cli",
    "automata.NodeAutomaton.output": "read by perfbench/workloads.py",
    "automata.NodeAutomaton.save": "read by perfbench/workloads.py",
    "automata.minmax_value": TRACER,
    "automata.minmax_value.<locals>.<lambda>": TRACER,
    "cli.ExperimentConfig.serialize": "the config round trip, pinned by "
                                      "test_cli and test_fuzz",
    "cli.ExperimentConfig.to_json_dict": "the config round trip, pinned by "
                                         "test_cli and test_fuzz",
    "cli.build_parser": "argparse runs only for lines the plain parser "
                        "refuses (help, usage, errors), pinned by test_cli",
    "cli.main": "`python -m limsupgames.cli`; the console script and the "
                "probe call entry",
    "construction.branch_limsup": TRACER,
    "construction.branch_limsup.<locals>.step": TRACER,
    "construction.construct_u": TRACER,
    "dyadic.Dyadic.__bool__": "number protocol of the value type: 0 is false",
    "dyadic.Dyadic.__float__": "number protocol of the value type, for "
                               "diagnostics; no decision reads it",
    "dyadic.Dyadic.__mul__": "arithmetic of the value type, pinned by "
                             "test_dyadic",
    "dyadic.Dyadic.__repr__": "repr in test failures and tracebacks",
    "dyadic.ExtValue.__eq__": "order of the extended values, read by "
                              "construct_u: " + TRACER,
    "dyadic.ExtValue.__hash__": "goes with ExtValue.__eq__",
    "dyadic.ExtValue.__lt__": "order of the extended values, read by "
                              "construct_u: " + TRACER,
    "dyadic.ExtValue.__repr__": "repr in test failures and tracebacks",
    "dyadic.ExtValue.__str__": "text of an infinite value in errors",
    "dyadic.ExtValue.is_finite": "read by construct_u: " + TRACER,
    "dyadic.as_ext": "read by ExtValue.__lt__, which goes with construct_u",
    "games.RunRow.__init__": "built by RunTrace.rows",
    "games.RunTrace._replace": RECORDS,
    "games.RunTrace.rows": "perfbench/tracer.py counts rounds with it, "
                           "goes with ROADMAP item 6",
    "games.RunTrace.witness_branch": "public trace API, pinned by test_games",
    "games.Strategy.move": HAND_WRITTEN,
    "games.Strategy.reset": HAND_WRITTEN,
    "games.Strategy.state_key": HAND_WRITTEN,
    "games.Verdict.__hash__": RECORDS,
    "games._Record.__eq__": RECORDS,
    "games._Record.__hash__": RECORDS,
    "games._Record.__repr__": RECORDS,
    "games._Record._fields": RECORDS,
    "games._coerce_answer": "guards hand-written players: every shipped II "
                            "answers Dyadics",
    "games.gamma_restricted": "public game constructor, exported and pinned "
                              "by test_games; the CLI builds GameKind itself",
    "trees.PrefixView.__iter__": "sequence protocol for attack callbacks "
                                 "that iterate the prefix",
    "trees.full_tree.<locals>.<lambda>": "TreeSpec.contains of a full "
                                         "tree, which admits never needs",
    "trees.nat_tree.<locals>.<lambda>": "TreeSpec.contains of a full "
                                        "tree, which admits never needs",
}


def package_functions(code, prefix=""):
    """(qualified name, key) of each function compiled into code; a key
    is what the profile hook sees of the function's frame."""
    for c in code.co_consts:
        if not hasattr(c, "co_consts"):
            continue
        function = bool(c.co_flags & 0x2)  # CO_NEWLOCALS: class bodies lack it
        name = prefix + c.co_name
        if function and (c.co_name == "<lambda>"
                         or not c.co_name.startswith("<")):
            yield name, (c.co_filename, c.co_firstlineno, c.co_name)
        yield from package_functions(
            c, name + (".<locals>." if function else "."))


def probe() -> list:
    """The sorted qualified names of the package functions that the
    command runs never enter."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            c = frame.f_code
            entered.add((c.co_filename, c.co_firstlineno, c.co_name))

    sys.setprofile(hook)
    from limsupgames.cli import entry

    # (directory, argv) per run; the goldens name files relative to theirs
    runs = [(GOLDEN, ["construct", "--config", str(p), "--out", "{out}"])
            for p in sorted((GOLDEN / "construct").glob("*.json"))]
    runs += [(GOLDEN / "play",
              ["verify" if p.stem.startswith("verify-") else "play",
               "--config", p.name, "--out", "{out}"])
             for p in sorted((GOLDEN / "play").glob("*.json"))]
    for line in (GOLDEN / "eval" / "cases.txt").read_text().splitlines():
        runs.append((GOLDEN / "eval", ["eval", *line.split()[1:]]))
    runs.append((GOLDEN, ["suite", "--out", "{out}"]))
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for i, (where, argv) in enumerate(runs):
            os.chdir(where)
            entry([a.format(out=f"{tmp}/{i}") for a in argv])
    sys.setprofile(None)

    unreached = set()
    for path in sorted((SRC / "limsupgames").glob("*.py")):
        mod = sys.modules["limsupgames" + (
            "" if path.stem == "__init__" else f".{path.stem}")]
        code = compile(path.read_text(encoding="utf-8"), mod.__file__, "exec")
        unreached |= {f"{path.stem}.{name}"
                      for name, key in package_functions(code)
                      if key not in entered}
    return sorted(unreached)


def test_every_unreached_function_is_allowed_with_a_reason():
    proc = subprocess.run([sys.executable, __file__],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    unreached = set(json.loads(proc.stdout))
    new = sorted(unreached - set(ALLOWED))
    stale = sorted(set(ALLOWED) - unreached)
    assert not new, f"no command reaches {new}: delete them or allow them"
    assert not stale, f"allowed but reached or gone: {stale}"
    assert all(ALLOWED.values())


if __name__ == "__main__":
    print(json.dumps(probe(), indent=0))
