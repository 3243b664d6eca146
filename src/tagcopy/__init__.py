"""Corpus toolkit for tag-and-copy machine translation experiments.

Pipeline pieces: parallel corpus handling, diagonal-prior word alignment,
translation-table extraction, entity linking with knowledge-graph
hypernyms, entity tagging templates with detagging, and the evaluation
suite (BLEU, copy accuracy, per-POS accuracy with significance tests).
"""

__version__ = "0.1.0"

from .corpus import NormProfile, ParallelCorpus, SentencePair, read_parallel, split_holdout
from .align import AlignModel, corpus_perplexity, symmetrize_links, train_alignment, viterbi_align
from .lexicon import TranslationTable, build_translation_table, translate_word
from .link import EntityMention, Gazetteer, SpotlightClient, project_entity_span
from .template import TagVocabulary, TemplateMethod, detag, select_bundles, tag_corpus
from .metrics import bleu, copy_accuracy, pos_accuracy, significance

__all__ = [
    "AlignModel",
    "EntityMention",
    "Gazetteer",
    "NormProfile",
    "ParallelCorpus",
    "SentencePair",
    "SpotlightClient",
    "TagVocabulary",
    "TemplateMethod",
    "TranslationTable",
    "bleu",
    "build_translation_table",
    "copy_accuracy",
    "corpus_perplexity",
    "detag",
    "pos_accuracy",
    "project_entity_span",
    "read_parallel",
    "select_bundles",
    "significance",
    "split_holdout",
    "symmetrize_links",
    "tag_corpus",
    "train_alignment",
    "translate_word",
    "viterbi_align",
]
