"""The Aho-Corasick automata: the trie, the reference NFA/DFA and the
compressed baselines of Table III (Tuck et al.'s bitmap and path
compression)."""

from .aho_corasick import (
    AhoCorasickDFA,
    AhoCorasickNFA,
    NFAMatchStats,
    verify_equivalent_matches,
)
from .bitmap_ac import (
    TUCK_BITMAP_REFERENCE_BYTES,
    BitmapAhoCorasick,
    BitmapNodeLayout,
)
from .path_compressed_ac import (
    TUCK_PATH_COMPRESSED_REFERENCE_BYTES,
    PathCompressedAhoCorasick,
    PathNodeLayout,
)
from .trie import ALPHABET_SIZE, ROOT, Trie, TrieStats

__all__ = [
    "AhoCorasickDFA",
    "AhoCorasickNFA",
    "NFAMatchStats",
    "verify_equivalent_matches",
    "BitmapAhoCorasick",
    "BitmapNodeLayout",
    "TUCK_BITMAP_REFERENCE_BYTES",
    "PathCompressedAhoCorasick",
    "PathNodeLayout",
    "TUCK_PATH_COMPRESSED_REFERENCE_BYTES",
    "ALPHABET_SIZE",
    "ROOT",
    "Trie",
    "TrieStats",
]
