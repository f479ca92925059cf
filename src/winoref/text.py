"""Tokenization, vocabulary with perturbation tokens, and corpus ingestion.

Word-level tokenizer (lowercased, punctuation split off), a frozen
vocabulary with a reserved block of special and perturbation-type ids, and
JSON-lines loaders for perturbation corpora and pronoun benchmarks.
"""

import enum
import io
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .config import canonical_json, check_choice

SLOT_MARKER = "_"

_WORD_RE = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


class PerturbationKind(enum.Enum):
    """The eight perturbation types; IDENTICAL means no semantic change."""
    IDENTICAL = "IDENTICAL"
    TENSE = "TENSE"
    NUMBER = "NUMBER"
    GENDER = "GENDER"
    VOICE = "VOICE"
    RELCLAUSE = "RELCLAUSE"
    ADVERB = "ADVERB"
    SYNONYM = "SYNONYM"

    @property
    def token(self):
        return f"[{self.value}]"


PERTURBATION_KINDS = list(PerturbationKind)
KIND_INDEX = {k: i for i, k in enumerate(PERTURBATION_KINDS)}

PAD, CLS, SEP, MASK, UNK = "[PAD]", "[CLS]", "[SEP]", "[MASK]", "[UNK]"
SPECIAL_TOKENS = [PAD, CLS, SEP, MASK, UNK]
# the reserved id block every vocabulary starts with: the special tokens,
# then one token per perturbation kind; ordinary words follow
RESERVED_TOKENS = SPECIAL_TOKENS + [k.token for k in PERTURBATION_KINDS]
PAD_ID, CLS_ID, SEP_ID, MASK_ID, UNK_ID = map(RESERVED_TOKENS.index, SPECIAL_TOKENS)
FIRST_WORD_ID = len(RESERVED_TOKENS)


def word_tokens(text):
    """Deterministic lowercased word/punctuation split."""
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Dense token -> id map with reserved special and perturbation ids."""

    def __init__(self):
        self._tokens = list(RESERVED_TOKENS)
        self._ids = {t: i for i, t in enumerate(self._tokens)}

    def add(self, token):
        if token not in self._ids:
            self._ids[token] = len(self._tokens)
            self._tokens.append(token)
        return self._ids[token]

    def __len__(self):
        return len(self._tokens)

    def id(self, token):
        return self._ids.get(token, UNK_ID)

    def token(self, idx):
        return self._tokens[idx]

    def save(self, path):
        doc = {"format_version": 1, "tokens": self._tokens}
        with open(path, "w", encoding="utf-8") as f:
            f.write(canonical_json(doc) + "\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                raise ValueError(f"vocabulary {path}: not valid JSON ({e.msg})") from None
            except UnicodeDecodeError as e:
                raise ValueError(f"vocabulary {path}: not UTF-8 text ({e.reason})") from None
        if not isinstance(doc, dict):
            raise ValueError(f"vocabulary {path}: expected a JSON object")
        if doc.get("format_version") != 1:
            raise ValueError(f"vocabulary {path}: unsupported format_version")
        tokens = doc.get("tokens")
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ValueError(f"vocabulary {path}: tokens must be a list of strings")
        if len(set(tokens)) != len(tokens):
            raise ValueError(f"vocabulary {path}: a token appears twice, so the ids "
                             f"after it would shift")
        if tokens[:FIRST_WORD_ID] != RESERVED_TOKENS:
            raise ValueError(f"vocabulary {path}: reserved id block is damaged")
        vocab = cls()
        for t in tokens[FIRST_WORD_ID:]:
            vocab.add(t)
        return vocab


def build_vocab(texts):
    """Vocabulary from raw texts, ids assigned in first-appearance order."""
    vocab = Vocabulary()
    for text in texts:
        for tok in word_tokens(text):
            vocab.add(tok)
    return vocab


def row_masks(ids):
    """(attention, content) masks of an id row or a batch of rows: the real
    tokens, and the ordinary words among them (neither special nor
    perturbation ids), the positions similarity matching reads."""
    ids = np.asarray(ids)
    return ids != PAD_ID, ids >= FIRST_WORD_ID


def encode_tokens(tokens, vocab, max_len):
    """Tokens wrapped as [CLS] ... [SEP] and padded: a (max_len,) int64 id row."""
    needed = len(tokens) + 2
    if needed > max_len:
        raise ValueError(f"sequence of {len(tokens)} tokens overflows max length "
                         f"{max_len} by {needed - max_len} tokens")
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[:needed] = [CLS_ID, *map(vocab.id, tokens), SEP_ID]
    return ids


def tokenize(text, vocab, max_len):
    """Text -> (max_len,) id row; empty text is rejected."""
    if not text or not text.strip():
        raise ValueError("cannot tokenize empty text")
    return encode_tokens(word_tokens(text), vocab, max_len)


@dataclass
class PerturbedGroup:
    """One corpus sample: a base sentence plus its perturbation variants."""
    sample_id: str
    base: str
    variants: dict = field(default_factory=dict)  # PerturbationKind -> text

    def available_kinds(self):
        """Kinds usable for this group; IDENTICAL is always eligible."""
        return [PerturbationKind.IDENTICAL] + [k for k in PERTURBATION_KINDS
                                               if k in self.variants]

    def variant_text(self, kind):
        if kind == PerturbationKind.IDENTICAL:
            return self.base
        return self.variants[kind]


@dataclass
class SchemaInstance:
    """A pronoun-disambiguation item: sentence with one slot, two candidates."""
    sentence: str
    candidate1: str
    candidate2: str
    label: int
    twin: str = None

    def candidate(self, which):
        return self.candidate1 if which == 1 else self.candidate2

    def check(self):
        """Reject an instance whose sentence does not hold exactly one slot,
        whose candidates are blank, hold the slot marker or tokenize the
        same, or whose label is not 1 or 2."""
        slots = sum(1 for t in word_tokens(self.sentence) if t == SLOT_MARKER)
        if slots != 1:
            raise ValueError(f"sentence must contain exactly one '{SLOT_MARKER}' "
                             f"slot, found {slots}")
        if not self.candidate1.strip() or not self.candidate2.strip():
            raise ValueError("candidates must be non-empty")
        for which in (1, 2):
            if SLOT_MARKER in word_tokens(self.candidate(which)):
                raise ValueError(f"candidate{which} {self.candidate(which)!r} holds "
                                 f"the slot marker '{SLOT_MARKER}'")
        if word_tokens(self.candidate1) == word_tokens(self.candidate2):
            raise ValueError("candidates must be distinct")
        check_choice("label", self.label, (1, 2))


def check_words(instance, vocab):
    """Reject an instance with a word of its sentence, candidates or twin
    outside ``vocab``. The word would be read as [UNK], which is never a
    pretraining target: two such candidates would tie, and such a sentence
    word would score the candidates in a context the model never saw."""
    fields = [("sentence", instance.sentence), ("candidate1", instance.candidate1),
              ("candidate2", instance.candidate2), ("twin", instance.twin)]
    for name, text in fields:
        for token in word_tokens(text or ""):
            if token != SLOT_MARKER and vocab.id(token) == UNK_ID:
                raise ValueError(f"{name} {text!r} holds the word {token!r}, "
                                 f"which is not in the vocabulary")


def text_lines(path):
    """``(lineno, line)`` for each line of the UTF-8 text file at ``path``,
    numbered from 1 and split as a text-mode ``open`` splits them. Bytes
    that are not UTF-8 fail with a ``ValueError`` naming the path and the
    line they are on."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        # the lines before the bad byte, plus the one it is on
        lineno = len(io.StringIO(data[:e.start].decode("utf-8") + "?",
                                 newline=None).readlines())
        raise ValueError(f"{path}:{lineno}: byte {data[e.start]:#04x} is not UTF-8 "
                         f"({e.reason})") from None
    return enumerate(io.StringIO(text, newline=None), start=1)


def _loads_strict(line, lineno, path):
    def reject_dup(pairs):
        d = {}
        for k, v in pairs:
            if k in d:
                raise ValueError(f"{path}:{lineno}: duplicate key {k!r}")
            d[k] = v
        return d

    try:
        obj = json.loads(line, object_pairs_hook=reject_dup)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{lineno}: malformed JSON line ({e.msg})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object")
    return obj


def _check_text(name, value):
    """Reject a text field that is not a string; ``name`` is the field as
    ``path:line: key``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _check_sentence(name, value):
    """Reject a corpus sentence that is not a string or is blank."""
    if not _check_text(name, value).strip():
        raise ValueError(f"{name} must not be empty")
    return value


def load_perturbation_corpus(path, warn=None):
    """Read JSON-lines groups: {"id", "base", "variants": {kind: text}}.

    Unknown perturbation keys are skipped; the skip count is reported through
    ``warn`` (a callable taking a message) and returned groups keep only the
    known kinds.
    """
    groups = []
    skipped = 0
    unchanged = 0
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        obj = _loads_strict(line, lineno, path)
        if "base" not in obj:
            raise ValueError(f"{path}:{lineno}: missing field 'base'")
        base = _check_sentence(f"{path}:{lineno}: base", obj["base"])
        stored = obj.get("variants", {})
        if not isinstance(stored, dict):
            raise ValueError(f"{path}:{lineno}: variants must be an object, "
                             f"got {stored!r}")
        base_tokens = word_tokens(base)
        variants = {}
        for key, text in stored.items():
            try:
                kind = PerturbationKind(key)
            except ValueError:
                skipped += 1
                continue
            if kind == PerturbationKind.IDENTICAL:
                raise ValueError(f"{path}:{lineno}: IDENTICAL may not appear as a "
                                 f"stored variant")
            _check_sentence(f"{path}:{lineno}: variants.{key}", text)
            if word_tokens(text) == base_tokens:
                unchanged += 1
            variants[kind] = text
        groups.append(PerturbedGroup(sample_id=str(obj.get("id", lineno)),
                                     base=base, variants=variants))
    if warn is not None:
        if skipped:
            warn(f"{path}: skipped {skipped} variants with unknown perturbation keys")
        if unchanged:
            warn(f"{path}: {unchanged} variants tokenize identically to their base")
    return groups


def load_benchmark(path, vocab=None):
    """Read JSON-lines schema instances with a literal '_' pronoun slot.
    With ``vocab``, each instance is also held to ``check_words``."""
    instances = []
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        obj = _loads_strict(line, lineno, path)
        for fieldname in ("sentence", "candidate1", "candidate2", "label"):
            if fieldname not in obj:
                raise ValueError(f"{path}:{lineno}: missing field {fieldname!r}")
        sentence, c1, c2 = (_check_text(f"{path}:{lineno}: {key}", obj[key])
                            for key in ("sentence", "candidate1", "candidate2"))
        twin = obj.get("twin")
        if twin is not None:
            _check_text(f"{path}:{lineno}: twin", twin)
        inst = SchemaInstance(sentence=sentence, candidate1=c1, candidate2=c2,
                              label=obj["label"], twin=twin)
        try:
            inst.check()
            if vocab is not None:
                check_words(inst, vocab)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        instances.append(inst)
    return instances


def save_benchmark(path, instances):
    with open(path, "w", encoding="utf-8") as f:
        for inst in instances:
            obj = {"sentence": inst.sentence, "candidate1": inst.candidate1,
                   "candidate2": inst.candidate2, "label": inst.label}
            if inst.twin is not None:
                obj["twin"] = inst.twin
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def save_perturbation_corpus(path, groups):
    with open(path, "w", encoding="utf-8") as f:
        for g in groups:
            obj = {"id": g.sample_id, "base": g.base,
                   "variants": {k.value: v for k, v in g.variants.items()}}
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def corpus_rows(groups, row):
    """``row(gi, group, kind)`` for each sentence of a corpus: per group, in
    the order of its ``available_kinds()``, gi being the group's position. A
    ValueError ``row`` raises is re-raised naming the sample id and kind."""
    out = []
    for gi, g in enumerate(groups):
        for kind in g.available_kinds():
            try:
                out.append(row(gi, g, kind))
            except ValueError as e:
                raise ValueError(f"corpus sample {g.sample_id!r}, kind {kind.value}: "
                                 f"{e}") from None
    return out


def corpus_sentences(groups):
    """All sentences of a corpus, in ``corpus_rows`` order."""
    return corpus_rows(groups, lambda gi, g, kind: g.variant_text(kind))


def benchmark_texts(instances):
    """Sentence and candidate texts, for vocabulary building."""
    out = []
    for inst in instances:
        out.append(inst.sentence.replace(SLOT_MARKER, " "))
        out.append(inst.candidate1)
        out.append(inst.candidate2)
        if inst.twin:
            out.append(inst.twin.replace(SLOT_MARKER, " "))
    return out
