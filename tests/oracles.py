"""Slow reference implementations the fast code is checked against.

Everything here favors obviousness over speed: exhaustive enumeration and
flat recomputation with no incremental state. Costs are accumulated in the
same left-to-right order as the dynamic programs so that identical
segmentations and paths produce bit-identical floats.
"""

import math

from morphseg.mdl import CHAR_BITS, Chunk, ChunkStore


def iter_segmentations(word):
    """Every way to cut a word into non-empty contiguous parts.

    Yields (boundary tuple, morph list) over all 2^(n-1) choices.
    """
    n = len(word)
    for mask in range(2 ** (n - 1)):
        bounds = tuple(i for i in range(1, n) if mask >> (i - 1) & 1)
        edges = (0,) + bounds + (n,)
        yield bounds, [word[edges[k] : edges[k + 1]] for k in range(len(edges) - 1)]


def exact_units(x):
    """A float as an exact integer multiple of 2**-1074, the smallest double spacing."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def exhaustive_viterbi(word, stats):
    """Cheapest segmentation of a word by trying every one.

    Segmentations are ordered as the DP orders them: by the exact sum of
    their per-morph float terms, then fewer morphs, then smallest boundary
    tuple. Returns (morphs, left-to-right float sum of the winner's terms),
    or None when no segmentation uses only known morphs.
    """
    counts = stats.counts
    total = stats.total
    best = None
    for bounds, morphs in iter_segmentations(word):
        if any(m not in counts for m in morphs):
            continue
        terms = [math.log2(total / counts[m]) for m in morphs]
        key = (sum(exact_units(t) for t in terms), len(morphs), bounds)
        if best is None or key < best[0]:
            cost = 0.0
            for t in terms:
                cost = cost + t
            best = (key, morphs, cost)
    if best is None:
        return None
    return best[1], best[2]


def iter_alignment_paths(m, n):
    """All monotone paths over an m x n grid from (0,0) to (m-1,n-1).

    Moves are diagonal, down and right; every visited cell is part of the
    path, so each morph and each label lands in at least one pair.
    """

    def walk(i, j, path):
        if i == m - 1 and j == n - 1:
            yield path
            return
        if i + 1 < m and j + 1 < n:
            yield from walk(i + 1, j + 1, path + [(i + 1, j + 1)])
        if i + 1 < m:
            yield from walk(i + 1, j, path + [(i + 1, j)])
        if j + 1 < n:
            yield from walk(i, j + 1, path + [(i, j + 1)])

    yield from walk(0, 0, [(0, 0)])


def brute_force_align(morphs, labels, table):
    """Minimum alignment distance by full path enumeration."""
    best = None
    for path in iter_alignment_paths(len(morphs), len(labels)):
        bits = 0.0
        for i, j in path:
            bits = bits + table.distances.get((morphs[i], labels[j]), table.max_distance)
        if best is None or bits < best:
            best = bits
    return best


def traced_flat_cost(store):
    """Chunk-store cost recomputed from word traces alone.

    Ignores all stored counts: segments every known word, tallies morph
    tokens weighted by how often the word was fed in, and prices the
    result as a flat lexicon. Agreement with total_cost(), which prices
    the stored leaf counts, checks the count flow.
    """
    counts = {}
    for word, n in store.word_counts.items():
        for m in store.segment_word(word):
            counts[m] = counts.get(m, 0) + n
    total = sum(counts.values())
    if total == 0:
        return 0.0
    corpus = sum(c * math.log2(total / c) for c in counts.values())
    return corpus + CHAR_BITS * sum(len(m) for m in counts)


def em_align_keeping_paths(segmented, gold, token_counts, max_iters, tol, distance_log):
    """Alignment EM that stores every word's path and re-reads it.

    The plain form of align.em_align: all alignments are kept in a dict,
    and the pair and morph tallies for each table are recounted from them.
    Uses the package's string-match start, table builder and word aligner,
    so only the bookkeeping of the EM loop differs.
    """
    from morphseg import align

    words = [w for w in segmented if w in gold]
    alignments = {w: align._string_match_align(segmented[w], gold[w]) for w in words}
    prev_total = None
    for _ in range(max_iters):
        pair_counts = {}
        morph_counts = {}
        for word in words:
            weight = token_counts[word]
            morphs = segmented[word]
            labels = gold[word].labels
            for pair in {(morphs[i], labels[j]) for i, j in alignments[word]}:
                pair_counts[pair] = pair_counts.get(pair, 0) + weight
            for morph in set(morphs):
                morph_counts[morph] = morph_counts.get(morph, 0) + weight
        table = align._build_table(pair_counts, morph_counts)
        terms = []
        for word in words:
            pairs, bits = align.align_word(segmented[word], gold[word].labels, table)
            alignments[word] = pairs
            terms.append(token_counts[word] * bits)
        total = math.fsum(terms)
        distance_log.append(total)
        if prev_total is not None and prev_total - total < tol * max(prev_total, 1e-12):
            break
        prev_total = total
    return table


def _cost_terms(store):
    """The float terms whose sum is a chunk store's cost, recounted from its
    leaves: N*log2(N), -c*log2(c) for each leaf count c, and the codebook bits."""
    leaves = [chunk for chunk in store.chunks.values() if chunk.split == 0]
    n = sum(chunk.count for chunk in leaves)
    terms = [n * math.log2(n)] if n else []
    terms += [-(chunk.count * math.log2(chunk.count)) for chunk in leaves]
    terms.append(float(CHAR_BITS * sum(len(chunk.text) for chunk in leaves)))
    return terms


class ExhaustiveSplitStore(ChunkStore):
    """ChunkStore whose split search applies every split point in turn.

    Each candidate is applied, the whole store is priced from its leaves,
    and the split is undone; no split point is skipped. Candidates are
    ordered by the exact sum of the priced store's float terms, then by
    split point, with keeping the chunk whole as split point 0, so ties
    favor no split, then the leftmost split.
    """

    def recursive_split(self, text):
        stack = [text]
        while stack:
            t = stack.pop()
            if len(t) < 2:
                continue
            node = self.chunks[t]
            if node.split:
                self._unsplit(node)
            best = (sum(map(exact_units, _cost_terms(self))), 0)
            for i in range(1, len(t)):
                self._split_leaf(node, i)
                best = min(best, (sum(map(exact_units, _cost_terms(self))), i))
                self._unsplit(node)
            i = best[1]
            if i:
                self._split_leaf(node, i)
                stack.append(t[i:])
                stack.append(t[:i])


class MirroredFlowStore(ChunkStore):
    """ChunkStore with the count flow written as two mirror-image walks.

    Adding and removing flow are separate routines, and _flow picks one by
    the sign of the amount; splitting, detaching a split and adding a token
    go through ChunkStore's own code. ChunkStore's one signed walk must
    leave chunks, counts and the leaf token total equal to this.
    """

    def _flow(self, text, amount):
        if amount > 0:
            self._add_flow(text, amount)
        else:
            self._remove_flow(text, -amount)

    def _add_flow(self, text, amount):
        chunks = self.chunks
        stack = [text]
        while stack:
            t = stack.pop()
            node = chunks.get(t)
            if node is None:
                chunks[t] = Chunk(t, amount)
                self._leaf_tokens += amount
            else:
                node.count += amount
                s = node.split
                if s == 0:
                    self._leaf_tokens += amount
                else:
                    stack.append(t[:s])
                    stack.append(t[s:])

    def _remove_flow(self, text, amount):
        chunks = self.chunks
        stack = [text]
        while stack:
            t = stack.pop()
            node = chunks[t]
            node.count -= amount
            s = node.split
            if s == 0:
                self._leaf_tokens -= amount
            else:
                stack.append(t[:s])
                stack.append(t[s:])
            if node.count == 0:
                del chunks[t]
