"""JSON Lines question/answer dataset loading.

One :class:`DatasetExample` is built per dataset line, so it keeps its
fields in ``__slots__`` and its ``__init__`` writes each one through its
slot's member descriptor: the generated frozen ``__init__`` calls
``object.__setattr__`` once per field, about twice the cost, and a slotted
record has no instance dict.  The slots are declared in the class body, not
by ``dataclass(slots=True)``, whose recreated class makes the frozen
``__setattr__``/``__delattr__`` raise ``TypeError``, not
``FrozenInstanceError``, for a name that is not a field; ``dataclass``
still generates those two, ``__eq__``, ``__hash__`` and ``__repr__``.
``__reduce__`` rebuilds a record through ``__init__``, since pickle's
default would restore the slots through the frozen ``__setattr__``.
:class:`evaluator.PerQueryResult`, one per evaluated question, is laid out
the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from . import TensorparseError


class DatasetError(TensorparseError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class DatasetExample:
    __slots__ = ("question", "answers")
    question: str
    answers: tuple[str, ...]

    def __init__(self, question, answers):
        _set_question(self, question)
        _set_answers(self, answers)

    def __reduce__(self):
        return type(self), (self.question, self.answers)


_set_question = DatasetExample.question.__set__
_set_answers = DatasetExample.answers.__set__

_decode = json.JSONDecoder().raw_decode


def load_dataset(source: Iterable[str]) -> list[DatasetExample]:
    """Parse JSONL lines ``{"question": ..., "answers": [...]}``.

    Blank lines are skipped and file order is preserved; an error names
    its line.

    Each stripped line is decoded by one ``raw_decode`` call, the C scan
    that ``json.loads`` wraps: the wrapper's frames and whitespace matches,
    which a stripped line does not need, took about a quarter of the load.
    The loader makes the wrapper's two other checks itself, with ``json``'s
    messages: a line that starts with U+FEFF, which the scan rejects, is
    ``Unexpected UTF-8 BOM (decode using utf-8-sig)``, and text after the
    document is ``Extra data``.
    """
    examples = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj, end = _decode(line)
        except json.JSONDecodeError as exc:
            msg = ("Unexpected UTF-8 BOM (decode using utf-8-sig)" if line[0] == "\ufeff"
                   else exc.msg)
            raise DatasetError(f"invalid JSON ({msg})", lineno) from exc
        except (ValueError, RecursionError) as exc:
            # an integer past Python's digit limit, or nesting past the recursion limit
            raise DatasetError(f"invalid JSON ({exc})", lineno) from exc
        if end != len(line):
            raise DatasetError("invalid JSON (Extra data)", lineno)
        if not isinstance(obj, dict):
            raise DatasetError("expected a JSON object", lineno)
        question = obj.get("question")
        answers = obj.get("answers")
        if not isinstance(question, str) or not question:
            raise DatasetError("missing or empty string field 'question'", lineno)
        if not isinstance(answers, list) or not answers:
            raise DatasetError("missing or empty string-array field 'answers'", lineno)
        for answer in answers:
            if not isinstance(answer, str):
                raise DatasetError("missing or empty string-array field 'answers'", lineno)
        examples.append(DatasetExample(question, tuple(answers)))
    return examples
