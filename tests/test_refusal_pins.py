"""Every refusal in ``src/`` is pinned by its message: some test text holds it.

A refusal is a call of ``ContractViolationError``, ``LayerStructureError``,
``VariantRuleError`` or ``TrainingDivergedError`` in ``src/``.  Its message is a
string, an f-string, a sum of them, or either branch of a conditional; each
field stands for any text.  ``TrainingDivergedError(step, what)`` has the message
its ``__init__`` builds, with the ``what`` the call gives filled in.

A test text is a string or f-string in ``tests/`` or ``bench/test_bench.py`` that
is not a docstring: the ``match=`` patterns, the CLI ``error:`` lines and the
tables that feed both.  A regex escape in it reads as the character it escapes.

The rule: a test text pins a message when it holds the whole message, each
field of either standing for any text, or when the message holds the text: the
text's words, punctuation aside, are words of the message in order, with two
consecutive words of the text on two consecutive words of the message that no
other refusal's message has.  Each field of the text, and each piece of regex
syntax or format placeholder in it, stands for any words of the message; each
field of the message stands for a value, at most two words of the text (``_fits``
says how).  One word is too weak to name a refusal (``greedy`` is in no other
message, yet says nothing of ``n_samples must be 1, temperature 0``), and asking
for the longest literal part misses fragments that name one refusal alone
(``shaped like its input``).  So a text no longer pins a refusal once a word of
the refusal that the text holds is reworded.
A message with no word of its own, ``read_record``'s ``{where}: {exc}``,
carries the text of the error it wraps, which is pinned where that is raised.
"""
import ast
import pathlib
import re
from collections import defaultdict

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dualstream"
# this file's own cases name refusals, so its texts pin none
TEST_FILES = [*sorted(set((ROOT / "tests").glob("*.py")) - {pathlib.Path(__file__).resolve()}),
              ROOT / "bench" / "test_bench.py"]
REFUSALS = {"ContractViolationError", "LayerStructureError", "VariantRuleError",
            "TrainingDivergedError"}
WORD = re.compile(r"\w+")
# where a test text stops being literal: a regex wildcard, alternation or class, or a
# format placeholder
_CUT = re.compile(r"(?<!\\)(?:\.[*+]\??|\||\[[^\]]*\]|\\[dwsbDWSB][*+?]?)|\{[^{}]*\}")
# the messages with no word of their own, shown as ``file: message``
_WORDLESS = ["errors.py: {}: {}"]


def _parts(node) -> list:
    """A string expression as its literal parts and its fields (None), adjacent
    literal parts joined; anything else is one field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        raw = [node.value]
    elif isinstance(node, ast.JoinedStr):
        raw = [v.value if isinstance(v, ast.Constant) else None for v in node.values]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        raw = _parts(node.left) + _parts(node.right)
    else:
        raw = [None]
    parts = []
    for part in raw:
        if part is not None and parts and parts[-1] is not None:
            parts[-1] += part
        else:
            parts.append(part)
    return parts


def _messages(node) -> list:
    if isinstance(node, ast.IfExp):
        return _messages(node.body) + _messages(node.orelse)
    return [_parts(node)]


def _diverged_message(call, init) -> list:
    """``TrainingDivergedError(step, what)``'s message: the f-string of its ``__init__``,
    with each argument the call gives as a constant filled in."""
    given = {param.arg: arg.value for param, arg in zip(init.args.args[1:], call.args)
             if isinstance(arg, ast.Constant)}
    template = next(n for n in ast.walk(init) if isinstance(n, ast.JoinedStr))
    return _parts(ast.JoinedStr([
        ast.Constant(str(given[v.value.id]))
        if isinstance(v, ast.FormattedValue) and getattr(v.value, "id", None) in given else v
        for v in template.values]))


def refusals() -> list[tuple[str, list]]:
    """``(file:line, message parts)`` of every refusal in ``src/``, one per message."""
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    diverged = next(n for n in errors.body
                    if isinstance(n, ast.ClassDef) and n.name == "TrainingDivergedError")
    init = next(n for n in diverged.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in REFUSALS):
                continue
            messages = ([_diverged_message(node, init)] if node.func.id == "TrainingDivergedError"
                        else _messages(node.args[0] if node.args else ast.Constant("")))
            found += [(f"{path.name}:{node.lineno}", message) for message in messages]
    return found


def _texts() -> list[list]:
    """The parts of every string and f-string in the test files but docstrings."""
    texts = []
    for path in TEST_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        for node in ast.walk(tree):  # breadth first: an f-string comes before its parts
            if isinstance(node, ast.JoinedStr):
                skip |= {id(v) for v in node.values}
                texts.append(_parts(node))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skip):
                texts.append([node.value])
    return texts


def _show(parts) -> str:
    return "".join("{}" if part is None else part for part in parts)


def _tokens(parts, cut: re.Pattern | None = None) -> tuple:
    """A message or a test text as its words and cuts (None): each field, and each
    match of ``cut``, is a cut; a word a cut runs into is read as part of it, and an
    escape as the character it escapes."""
    tokens = []
    for i, part in enumerate(parts):
        if part is None:
            tokens.append(None)
            continue
        spans = cut.finditer(part) if cut else ()
        bounds = [0, *(end for m in spans for end in m.span()), len(part)]
        for a, b in zip(bounds[::2], bounds[1::2]):
            piece = re.sub(r"\\(\W)", r"\1", part[a:b])
            head, tail = a > 0 or i > 0, b < len(part) or i + 1 < len(parts)
            tokens += [None] * (a > 0) + [
                None if head and m.start() == 0 or tail and m.end() == len(piece) else m.group()
                for m in WORD.finditer(piece)]
    return tuple(tokens)


def _fits(words, tokens, piece: str = "placed") -> bool:
    """Whether the words and cuts ``words`` of a test text begin some text of the
    message ``tokens``.  A cut of the text stands for any words of the message.  A
    field of the message stands for at most two words of the text before its next
    cut, about the most a value spells (``'tok_emb'``, ``2.5``, ``(2, 12)``), and each
    piece of the text between two cuts that has words sets one on a word of the
    message: ``piece`` says whether the current piece is ``fresh``, ``bare`` (its
    words so far in a field) or ``placed``."""
    if not words or words[0] is None:
        return piece != "bare" and (not words or any(
            _fits(words[1:], tokens[k:], "fresh") for k in range(len(tokens) + 1)))
    if not tokens:
        return False
    if tokens[0] is None:
        end = min(2, words.index(None) if None in words else len(words))
        return any(_fits(words[k:], tokens[1:], "bare" if k and piece == "fresh" else piece)
                   for k in range(end + 1))
    return words[0] == tokens[0] and _fits(words[1:], tokens[1:])


def _holds(tokens, text, q: int) -> bool:
    """Whether some text of the message ``tokens`` holds the test ``text`` with its
    words ``q`` and ``q + 1`` on two consecutive words of the message's own."""
    return any(tokens[s:s + 2] == text[q:q + 2] and _fits(text[q:], tokens[s:])
               and _fits(text[:q][::-1], tokens[:s][::-1]) for s in range(len(tokens) - 1))


def unpinned(sites, texts) -> list[str]:
    """The ``file:line: message`` of each site that no test text pins by the rule above."""
    # each text whole, an escape read as the character it escapes and a field as NUL
    whole = "\n".join("".join("\0" if part is None else re.sub(r"\\(\W)", r"\1", part)
                              for part in text) for text in texts)
    tokens = [_tokens(parts) for _, parts in sites]
    sites_of = defaultdict(set)
    for k, site_tokens in enumerate(tokens):
        for pair in zip(site_tokens, site_tokens[1:]):
            if None not in pair:
                sites_of[pair].add(k)
    pinned = set()
    for text in {_tokens(text, _CUT) for text in texts}:
        for q, pair in enumerate(zip(text, text[1:])):
            if len(sites_of[pair]) == 1 and _holds(tokens[min(sites_of[pair])], text, q):
                pinned |= sites_of[pair]
    found = []
    for k, (where, parts) in enumerate(sites):
        pattern = "".join(".*?" if part is None else re.escape(part) for part in parts)
        if k not in pinned and not re.search(pattern, whole):
            found.append(f"{where}: {_show(parts)}")
    return found


def test_the_scan_finds_every_refusal_type():
    names = {node.func.id for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in REFUSALS}
    assert names == REFUSALS
    assert len(refusals()) > len(names)


def test_only_read_record_wraps_a_message_with_no_word_of_its_own():
    assert [f"{where.split(':')[0]}: {_show(parts)}" for where, parts in refusals()
            if not any(_tokens(parts))] == _WORDLESS


def test_every_refusal_is_pinned_by_its_message():
    sites = [(where, parts) for where, parts in refusals() if any(_tokens(parts))]
    assert unpinned(sites, _texts()) == []


_SITES = [("a.py:1", ["duplicate tensor name ", None]),
          ("a.py:2", ["hook must return an array shaped like its input"]),
          ("a.py:3", ["epochs must be >= 1"]),
          ("a.py:4", ["seed must be >= 1"]),
          ("a.py:5", ["insertion layer ", None, " outside 1..", None])]


@pytest.mark.parametrize("texts, pinned", [
    ([["duplicate"]], []),                                    # one word names nothing
    ([["duplicate tensor name 'x'"]], ["a.py:1"]),            # the whole message
    ([["tensor name"]], ["a.py:1"]),                          # two words no other has
    ([["repeated tensor name 'x'"]], []),                     # a word the message lacks
    ([["repeated ", None, " tensor name"]], []),              # so every piece must fit
    ([["shaped like its input"]], ["a.py:2"]),
    ([["must be >= 1"]], []),                                 # shared by two refusals
    ([["epochs must be >= 1"], ["seed must be"]], ["a.py:3", "a.py:4"]),
    ([[r"insertion layer 0 outside 1\.\.1"]], ["a.py:5"]),    # a regex escape
    ([["insertion layer ", None, " outside 1..1"]], ["a.py:5"]),  # a field of the test's
    ([["insertion .* outside"]], []),                         # a wildcard cuts the run
    ([["Duplicate Tensor Name"]], []),                        # words match as written
])
def test_the_rule_on_small_cases(texts, pinned):
    missing = {line.split(": ")[0] for line in unpinned(_SITES, texts)}
    assert sorted({where for where, _ in _SITES} - missing) == pinned
