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


def test_every_param_allowlist_entry_names_a_defaulted_parameter_in_scope():
    defaulted = {
        f"{name}({param}=)"
        for name, nodes in reach.parameters().values()
        for param in nodes
    }
    assert sorted(set(reach.PARAM_ALLOWLIST) - defaulted) == []


def test_every_param_allowlist_reason_starts_with_a_class():
    for name, reason in reach.PARAM_ALLOWLIST.items():
        kind, _, why = reason.partition(": ")
        assert kind in reach.CLASSES and why, (name, reason)


PARAMS_SOURCE = textwrap.dedent(
    """
    class Queue:
        pass


    def plain(a, b=1, *, c, d="x"):
        return a


    def positional_only(a=2.5, /, b=None):
        return a


    def named(queue=Queue, *args, **kwargs):
        return queue


    def bare(a, *, b):
        return a


    def counted(limit=3):
        limit = -1  # a resumed generator sees this, not the argument
        yield limit
        yield limit
    """
)


def _params_module(tmp_path):
    """The synthetic module under ``<tmp>/repro/attacks``, in scope."""
    package = tmp_path / "repro" / "attacks"
    package.mkdir(parents=True)
    path = package / "mod.py"
    path.write_text(PARAMS_SOURCE)
    namespace = {}
    exec(compile(PARAMS_SOURCE, str(path.resolve()), "exec"), namespace)
    return path, namespace


def test_enumeration_covers_positional_and_keyword_only_defaults(tmp_path):
    _params_module(tmp_path)
    found = {
        name.split("::")[1]: sorted(nodes)
        for name, nodes in reach.parameters(tmp_path).values()
    }
    assert found == {
        "plain": ["b", "d"],
        "positional_only": ["a", "b"],
        "named": ["queue"],
        "counted": ["limit"],
    }
    # Other packages are out of scope.
    assert reach.parameters(tmp_path, scope=("cpu",)) == {}


def test_trace_records_which_defaults_a_call_overrides(tmp_path):
    _, namespace = _params_module(tmp_path)
    watches = {
        key: reach.Watch(name, nodes)
        for key, (name, nodes) in reach.parameters(tmp_path).items()
    }

    def calls():
        namespace["plain"](0, c=1)                   # defaults only
        namespace["plain"](0, 1, c=1, d="y")         # d differs
        namespace["positional_only"](2.5, b=None)    # equal values
        namespace["named"](namespace["Queue"])       # the evaluated name
        list(namespace["counted"]())                 # resumes see limit=-1

    reach.trace([("calls", calls)], {}, watches)
    unset = {
        watch.name.split("::")[1]: sorted(watch.unset) for watch in watches.values()
    }
    assert unset == {
        "plain": ["b"],
        "positional_only": ["a", "b"],
        "named": ["queue"],
        "counted": ["limit"],
    }
    assert all(not watch.errors for watch in watches.values())
