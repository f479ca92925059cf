import hashlib
import json
import re

import numpy as np
import pytest

from winoref.refine import generated_row
from winoref.text import (CLS_ID, FIRST_WORD_ID, MASK_ID, PAD_ID, PERTURBATION_KINDS,
                          SEP_ID, SPECIAL_TOKENS, UNK_ID,
                          PerturbationKind, PerturbedGroup, Vocabulary, build_vocab,
                          corpus_sentences, load_benchmark, load_perturbation_corpus,
                          row_masks, save_benchmark, save_perturbation_corpus,
                          tokenize, word_tokens)
from winoref.synthetic import make_benchmark, make_perturbation_corpus

PINNED_VOCABULARY = "d1af49ef334f2b6316e697eb88a038a5d2f6b2887021ed359b515083e4f5dbb9"


@pytest.fixture
def vocab():
    return build_vocab(["the trophy fits .", "a small suitcase", "medal valise"])


class TestTokenizer:
    def test_basic_wrapping(self, vocab):
        ids = tokenize("The trophy fits.", vocab, max_len=10)
        assert ids.shape == (10,) and ids.dtype == np.int64
        tokens = [vocab.token(i) for i in ids]
        assert tokens == ["[CLS]", "the", "trophy", "fits", ".", "[SEP]",
                          "[PAD]", "[PAD]", "[PAD]", "[PAD]"]
        attention, content = row_masks(ids)
        assert attention.tolist() == [True] * 6 + [False] * 4
        # content excludes [CLS]/[SEP]/pads
        assert content.tolist() == [False, True, True, True, True,
                                    False, False, False, False, False]

    def test_empty_text_rejected(self, vocab):
        with pytest.raises(ValueError, match="empty"):
            tokenize("", vocab, max_len=10)
        with pytest.raises(ValueError, match="empty"):
            tokenize("   ", vocab, max_len=10)

    def test_determinism(self, vocab):
        a = tokenize("the trophy fits .", vocab, 12)
        b = tokenize("the trophy fits .", vocab, 12)
        np.testing.assert_array_equal(a, b)

    def test_unknown_words_map_to_unk(self, vocab):
        ids = tokenize("the zeppelin fits", vocab, 10)
        assert ids[2] == UNK_ID

    def test_overflow_reports_count(self, vocab):
        with pytest.raises(ValueError, match="by 3 tokens"):
            tokenize("the trophy fits in a small suitcase", vocab, max_len=6)

    def test_lowercasing_and_punct_split(self):
        assert word_tokens("The trophy, it FITS!") == \
            ["the", "trophy", ",", "it", "fits", "!"]


class TestPerturbationTokens:
    def test_kind_set_is_exactly_eight(self):
        assert len(PERTURBATION_KINDS) == 8
        names = {k.value for k in PERTURBATION_KINDS}
        assert names == {"IDENTICAL", "TENSE", "NUMBER", "GENDER", "VOICE",
                         "RELCLAUSE", "ADVERB", "SYNONYM"}

    def test_prepend_puts_token_after_cls(self, vocab):
        group = PerturbedGroup(sample_id="g", base="the trophy fits")
        row = generated_row(group, PerturbationKind.SYNONYM, vocab, 10)
        tokens = [vocab.token(i) for i in row[:7]]
        assert tokens == ["[CLS]", "[SYNONYM]", "the", "trophy", "fits", "[SEP]",
                          "[PAD]"]
        # the base's word ids, shifted one place right
        np.testing.assert_array_equal(row[2:5], tokenize(group.base, vocab, 10)[1:4])
        attention, content = row_masks(row)
        assert attention.tolist() == [True] * 6 + [False] * 4
        # perturbation token is not a content position
        assert content.tolist() == [False, False] + [True] * 3 + [False] * 5

    def test_prepend_identical_is_a_normal_token(self, vocab):
        group = PerturbedGroup(sample_id="g", base="the trophy fits")
        row = generated_row(group, PerturbationKind.IDENTICAL, vocab, 10)
        assert vocab.token(row[1]) == "[IDENTICAL]"

    def test_prepend_rejected_at_max_length(self, vocab):
        # the base alone fills all 7 positions; its kind token overflows them
        group = PerturbedGroup(sample_id="g", base="the trophy fits in a")
        assert tokenize(group.base, vocab, max_len=7)[-1] == SEP_ID
        with pytest.raises(ValueError, match="overflows max length 7 by 1"):
            generated_row(group, PerturbationKind.TENSE, vocab, 7)

    def test_prepend_injective_in_kind(self, vocab):
        group = PerturbedGroup(sample_id="g", base="the trophy fits")
        outs = [generated_row(group, k, vocab, 12).tobytes() for k in PERTURBATION_KINDS]
        assert len(set(outs)) == len(PERTURBATION_KINDS)


class TestVocabulary:
    def test_reserved_and_dense_ids(self, vocab):
        assert PAD_ID == 0
        assert ([vocab.id(t) for t in SPECIAL_TOKENS]
                == [PAD_ID, CLS_ID, SEP_ID, MASK_ID, UNK_ID])
        assert FIRST_WORD_ID == len(Vocabulary())
        ids = sorted(vocab.id(vocab.token(i)) for i in range(len(vocab)))
        assert ids == list(range(len(vocab)))

    def test_perturbation_ids_disjoint_from_words(self, vocab):
        kind_ids = {vocab.id(k.token) for k in PERTURBATION_KINDS}
        assert len(kind_ids) == 8
        assert all(i < FIRST_WORD_ID for i in kind_ids)

    def test_save_load_save_byte_identical(self, vocab, tmp_path):
        p1, p2 = tmp_path / "v1.json", tmp_path / "v2.json"
        vocab.save(p1)
        Vocabulary.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_load_holds_the_version_to_the_integer_one(self, vocab, tmp_path, version):
        # True == 1 and 1.0 == 1 in Python, so both used to load as version 1
        p = tmp_path / "v.json"
        vocab.save(p)
        p.write_text(p.read_text().replace('"format_version":1',
                                           f'"format_version":{json.dumps(version)}'))
        with pytest.raises(ValueError) as e:
            Vocabulary.load(p)
        assert str(e.value) == f"{p}: format_version must be one of 1, got {version!r}"

    def test_load_rejects_damaged_reserved_block(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"format_version": 1, "tokens": ["[PAD]", "x"]}))
        with pytest.raises(ValueError, match="reserved"):
            Vocabulary.load(p)


class TestCorpusLoading:
    def test_285_line_corpus_loads_285_groups(self, tmp_path):
        groups = make_perturbation_corpus(285, seed=0)
        path = tmp_path / "corpus.jsonl"
        save_perturbation_corpus(path, groups)
        assert len(path.read_text().strip().splitlines()) == 285
        loaded = load_perturbation_corpus(path)
        assert len(loaded) == 285
        assert loaded[0].base == groups[0].base
        assert loaded[0].variants == groups[0].variants

    def test_base_only_line_gives_empty_variant_map(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "base": "the trophy fits ."}\n')
        groups = load_perturbation_corpus(path)
        assert groups[0].variants == {}
        assert groups[0].available_kinds() == [PerturbationKind.IDENTICAL]

    def test_duplicate_variant_key_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","base":"x y","variants":'
                        '{"TENSE":"a","TENSE":"b"}}\n')
        with pytest.raises(ValueError, match="duplicate key"):
            load_perturbation_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","base":"x y"}\n{oops\n')
        with pytest.raises(ValueError, match=":2:"):
            load_perturbation_corpus(path)

    def test_unknown_kinds_skipped_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","base":"x y","variants":'
                        '{"TENSE":"x z","SCRAMBLE":"z x","FOO":"y"}}\n')
        messages = []
        groups = load_perturbation_corpus(path, warn=messages.append)
        assert list(groups[0].variants) == [PerturbationKind.TENSE]
        assert len(messages) == 1 and "2" in messages[0]

    def test_unchanged_variant_warns_but_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","base":"x y .","variants":{"TENSE":"X y."}}\n')
        messages = []
        groups = load_perturbation_corpus(path, warn=messages.append)
        assert groups[0].variants[PerturbationKind.TENSE] == "X y."
        assert any("identically" in m for m in messages)

    def test_non_string_text_or_non_object_variants_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "base": "x y", "variants": {"TENSE": "x z"}}
        for bad in ({"base": 5}, {"variants": ["x z"]}, {"variants": None},
                    {"variants": {"TENSE": 5}}):
            path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **bad}) + "\n")
            with pytest.raises(ValueError, match=f"{path}:2: "):
                load_perturbation_corpus(path)

    def test_blank_text_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = {"id": "a", "base": "x y", "variants": {"TENSE": "x z"}}
        for bad, key in (({"base": ""}, "base"), ({"base": " \t"}, "base"),
                         ({"variants": {"TENSE": "  "}}, "variants.TENSE")):
            path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **bad}) + "\n")
            with pytest.raises(ValueError, match=f"{path}:2: {key} must not be empty"):
                load_perturbation_corpus(path)

    def test_identical_rejected_as_stored_variant(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id":"a","base":"x y","variants":{"IDENTICAL":"x y"}}\n')
        with pytest.raises(ValueError, match="IDENTICAL"):
            load_perturbation_corpus(path)

    def test_variants_differ_from_base(self):
        # sanity on the generator: every variant changes at least one token
        for g in make_perturbation_corpus(40, seed=5):
            base = word_tokens(g.base)
            for kind, text in g.variants.items():
                assert word_tokens(text) != base, (g.sample_id, kind)


class TestBenchmarkLoading:
    def test_round_trip(self, tmp_path):
        instances = make_benchmark(20, seed=1)
        path = tmp_path / "b.jsonl"
        save_benchmark(path, instances)
        loaded = load_benchmark(path)
        assert loaded == instances

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('{"sentence": "the _ fits .", "candidate1": "a", "label": 1}\n')
        with pytest.raises(ValueError, match="candidate2"):
            load_benchmark(path)

    def test_slot_count_enforced(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps({"sentence": "no slot here .", "candidate1": "a",
                                    "candidate2": "b", "label": 1}) + "\n")
        with pytest.raises(ValueError, match="exactly one"):
            load_benchmark(path)

    def test_identical_candidates_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps({"sentence": "the _ fits .", "candidate1": "a",
                                    "candidate2": "A", "label": 2}) + "\n")
        with pytest.raises(ValueError, match="distinct"):
            load_benchmark(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        for label in (3, True, 1.0, "1"):
            path.write_text(json.dumps({"sentence": "the _ fits .", "candidate1": "a",
                                        "candidate2": "b", "label": label}) + "\n")
            with pytest.raises(ValueError, match="label"):
                load_benchmark(path)

    def test_non_string_text_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        good = {"sentence": "the _ fits .", "candidate1": "a", "candidate2": "b",
                "label": 1}
        for bad in ({"sentence": 5}, {"candidate1": ["a"]}, {"candidate2": None},
                    {"twin": 3}):
            path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **bad}) + "\n")
            with pytest.raises(ValueError, match=f"{path}:2: {next(iter(bad))} must be"):
                load_benchmark(path)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        # Windows line ends count once, as a text-mode read counts them
        path = tmp_path / "b.jsonl"
        good = json.dumps({"sentence": "the _ fits .", "candidate1": "a",
                           "candidate2": "b", "label": 1}).encode()
        path.write_bytes(good + b"\r\n\r\n" + good.replace(b"fits", b"f\xe9ts") + b"\r\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: byte 0xe9 is not UTF-8 (invalid continuation byte)")):
            load_benchmark(path)
        path.write_bytes(good + b"\r\n\r\n" + good + b"\r\n")
        assert len(load_benchmark(path)) == 2

    def test_twins_share_candidates(self):
        for inst in make_benchmark(30, seed=2):
            assert inst.twin is not None
            assert inst.twin != inst.sentence


def test_corpus_sentences_order_is_stable():
    groups = make_perturbation_corpus(10, seed=3)
    assert corpus_sentences(groups) == corpus_sentences(groups)


def test_synthetic_vocab_stays_small():
    groups = make_perturbation_corpus(285, seed=0)
    from winoref.text import benchmark_texts
    vocab = build_vocab(corpus_sentences(groups)
                        + benchmark_texts(make_benchmark(1000, seed=1)))
    assert len(vocab) <= 500


def test_vocabulary_file_bytes_are_pinned(tmp_path):
    # the file format's bytes: key order, separators and escaping show here
    path = tmp_path / "vocab.json"
    build_vocab(["the trophy fits .", "a naïve \"quoted\" café"]).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_VOCABULARY
