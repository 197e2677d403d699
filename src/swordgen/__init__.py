"""
Gray codes for pattern-avoiding words with repeated letters.

A word over the shape s = (s_1, ..., s_m) uses each value v exactly s_v
times.  The package generates such words so that consecutive outputs
differ by one bump (a run of equal digits trading places with adjacent
smaller digits): a greedy engine that works for any zig-zag pattern
language, and loopless engines for the 212-avoiding and the peakless
words, plus bijections onto increasing trees, k-ary trees and inversion
vectors.
"""

from .bumps import BumpMove, classify_move
from .greedy import GrayCodeReport, GrayCodeRun, generate_greedy, verify_gray_code
from .oracle import (
    STIRLING_PATTERNS,
    SizeLimitError,
    all_shapes,
    count_avoiding,
    language,
    stirling_count,
)
from .stirling import generate_loopless, stirling_sequence
from .trees import (
    hamilton_path,
    inversion_vector,
    stirling_word_to_tree,
    tree_to_stirling_word,
    word_from_inversion_vector,
)
from .words import Shape, format_word, make_shape, parse_word, shape_of_word

__version__ = "0.1.0"
