"""The reach tool's allowlist stays true to the tree (``tools/reach.py``).

The tool runs every product entry point, which takes minutes, so these
tests only import it: every allowlisted name must still be a function
under ``src/``, every reason must name one of the tool's classes, and
the enumeration must key each function the way its code object does.
"""

import textwrap

from tools import reach


def test_every_allowlist_entry_names_a_function_under_src():
    defined = set(reach.functions().values())
    assert sorted(set(reach.ALLOWLIST) - defined) == []


def test_every_allowlist_reason_starts_with_a_class():
    for name, reason in reach.ALLOWLIST.items():
        kind, _, why = reason.partition(": ")
        assert kind in reach.CLASSES and why, (name, reason)


def test_enumeration_keys_match_code_objects(tmp_path):
    # A decorated function's code starts at its first decorator; nested
    # functions count under ``<locals>``; lambdas do not count.
    source = textwrap.dedent(
        """
        def keep(fn):
            return fn


        class Box:
            @keep
            @keep
            def method(self):
                return lambda: None


        def outer():
            def inner():
                return 1

            return inner
        """
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    namespace = {}
    exec(compile(source, str(path.resolve()), "exec"), namespace)
    functions = [
        namespace["keep"],
        namespace["Box"].method,
        namespace["outer"],
        namespace["outer"](),
    ]
    found = reach.functions(tmp_path)
    assert len(found) == len(functions)
    for fn in functions:
        key = (str(path.resolve()), fn.__code__.co_firstlineno)
        assert found[key] == f"mod.py::{fn.__qualname__}"
    method_line = namespace["Box"].method.__code__.co_firstlineno
    assert source.splitlines()[method_line - 1].strip() == "@keep"
