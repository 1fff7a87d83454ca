"""Pinned parse results and errors: every source in parse_snapshots.json must
parse to the recorded result, or fail with the recorded exception class, byte
offset and message.

The sources are the malformed corpus, the goldens, and every distinct seed-1
benchmark equation and initial-value string.  The variants are the one-token
deletions and the doubled operator tokens of the first `mix` cycle's 12
equations and of the first `roots` cycle's 8 initial-value strings, so that the
error paths a parser change rewrites are pinned as well as the results.  The
file keeps each variant's base source and its outcomes in order; `variants`
derives the variant sources again.  A result is kept as its `repr`, or as a
sha256 prefix of it when the repr is long, and an error message as an index
into the file's message list, with its byte offset written as @.  After a
deliberate change, record them again from the root of a checkout with

    PYTHONPATH=src:bench python tests/test_parse_snapshots.py

and review the diff of the JSON file.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest

from fdsolve import parser

SNAPSHOTS = Path(__file__).with_name("parse_snapshots.json")
_LONG = 100  # reprs past this many characters are kept as a digest
_TOKEN = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_]+|\S")  # the parser's tokens, for ASCII input


def outcome(fn, src):
    """`parser.<fn>(src)` as its repr (or digest), or as the exception's class,
    byte offset and message."""
    try:
        text = repr(getattr(parser, fn)(src))
    except Exception as exc:  # every failure is pinned, whatever its class
        return [type(exc).__name__, getattr(exc, "offset", None), str(exc)]
    if len(text) <= _LONG:
        return text
    return "sha256 " + hashlib.sha256(text.encode()).hexdigest()[:16]


def variants(src):
    """Each one-token deletion of src, then each doubled operator token."""
    toks = list(_TOKEN.finditer(src))
    yield from (src[:m.start()] + src[m.end():] for m in toks)
    yield from (src[:m.start()] + m[0] + src[m.start():] for m in toks
                if not m[0][0].isalnum() and m[0][0] != "_")


def _pack(out, messages):
    """An error's message as an index into `messages`, its byte offset left out."""
    if isinstance(out, list):
        cls, offset, msg = out
        msg = msg.replace(f"at byte {offset}: ", "at byte @: ", 1)
        out = [cls, offset, messages.setdefault(msg, len(messages))]
    return out


def _unpack(out, messages):
    if isinstance(out, list):
        cls, offset, i = out
        out = [cls, offset, messages[i].replace("at byte @: ", f"at byte {offset}: ", 1)]
    return out


def record():
    import inputs  # bench/inputs.py
    from run import input_set  # bench/run.py
    from corpus import GOLDEN_EQUATIONS, GOLDEN_PARTICULARS, MALFORMED

    pairs = [("parse_equation", src) for src, _, _ in MALFORMED]
    pairs += [("parse_equation", src) for src in GOLDEN_EQUATIONS]
    pairs += [("parse_expression", src) for src in GOLDEN_PARTICULARS]
    for workload in inputs.WORKLOADS:
        for inst in input_set(workload, 1, 16):
            pairs.append(("parse_equation", inst.equation))
            if inst.initial:
                pairs.append(("parse_initial", inst.initial))
    bases = [("parse_equation", inst.equation) for inst in inputs.cycle("mix", 1, 0)]
    bases += [("parse_initial", inst.initial) for inst in inputs.cycle("roots", 1, 0)]
    messages = {}
    sources = [[fn, src, _pack(outcome(fn, src), messages)] for fn, src in dict.fromkeys(pairs)]
    bases = [[fn, src, [_pack(outcome(fn, v), messages) for v in variants(src)]]
             for fn, src in bases]
    parts = {"messages": list(messages), "sources": sources, "variants": bases}
    SNAPSHOTS.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(x, ensure_ascii=False) for x in rows)
        + "\n]" for key, rows in parts.items()) + "\n}\n", encoding="utf-8")
    return len(sources) + sum(len(outs) for _, _, outs in bases)


def _load():
    if not SNAPSHOTS.exists():
        return [], [], []
    pins = json.loads(SNAPSHOTS.read_text(encoding="utf-8"))
    return pins["messages"], pins["sources"], pins["variants"]


MESSAGES, SOURCES, BASES = _load()


@pytest.mark.parametrize("fn,src,expected", SOURCES,
                         ids=[f"{i}-{fn}" for i, (fn, _, _) in enumerate(SOURCES)])
def test_parse_matches_snapshot(fn, src, expected):
    assert outcome(fn, src) == _unpack(expected, MESSAGES)


@pytest.mark.parametrize("fn,src,expected", BASES,
                         ids=[f"{i}-{fn}" for i, (fn, _, _) in enumerate(BASES)])
def test_variants_match_snapshot(fn, src, expected):
    got = [(v, outcome(fn, v)) for v in variants(src)]
    assert len(got) == len(expected)
    assert [v for (v, out), want in zip(got, expected) if out != _unpack(want, MESSAGES)] == []


if __name__ == "__main__":
    import sys
    sys.path[:0] = [str(Path(__file__).parent)]
    print(f"recorded {record()} parse snapshots in {SNAPSHOTS}")
