"""Cartan matrices, root norms and Dynkin diagram classification.

Node numbering follows Bourbaki throughout.  The Cartan matrix convention
used everywhere in this package is

    C[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i),

i.e. row i is indexed by the coroot, column j by the root.
"""

from itertools import permutations

RANK_BOUNDS = {"A": (1, 8), "B": (2, 8), "C": (2, 8), "D": (3, 8),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _chain_edges(l):
    return [(i, i + 1) for i in range(l - 1)]


def _edges(letter, l):
    """Dynkin diagram edges (0-based, Bourbaki numbering)."""
    if letter in ("A", "B", "C"):
        return _chain_edges(l)
    if letter == "D":
        return _chain_edges(l - 1) + [(l - 3, l - 1)]
    if letter == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)]
        if l >= 7:
            chain.append((5, 6))
        if l == 8:
            chain.append((6, 7))
        return chain + [(1, 3)]
    if letter == "F":
        return _chain_edges(4)
    if letter == "G":
        return [(0, 1)]
    raise ValueError(letter)


def root_norms(letter, l):
    """Squared root lengths (alpha_i, alpha_i), Bourbaki normalization."""
    if letter in ("A", "D", "E"):
        return [2] * l
    if letter == "B":
        return [2] * (l - 1) + [1]
    if letter == "C":
        return [2] * (l - 1) + [4]
    if letter == "F":
        return [2, 2, 1, 1]
    if letter == "G":
        return [2, 6]
    raise ValueError(letter)


def cartan_matrix(letter, l):
    """The l x l integer Cartan matrix, in the convention stated above."""
    norms = root_norms(letter, l)  # ValueError on an unknown letter
    lo, hi = RANK_BOUNDS[letter]
    if not lo <= l <= hi:
        raise ValueError(f"rank {l} out of range for type {letter}")
    c = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    for i, j in _edges(letter, l):
        # (alpha_i, alpha_j) = -max(norm_i, norm_j)/2 on a Dynkin edge, so
        # C[i][j] = -max(norm_i, norm_j) / norm_i
        for a, b in ((i, j), (j, i)):
            c[a][b], rem = divmod(-max(norms[a], norms[b]), norms[a])
            if rem:
                raise RuntimeError(f"Cartan entry {a},{b} is not an integer")
    return c


def classify(block):
    """Identify a valid Cartan matrix as a list of (letter, rank, nodes).

    `nodes` gives, for each irreducible component, the indices into `block`
    in Bourbaki order.  Raises ValueError if the matrix matches no type.
    """
    l = len(block)
    # split into connected components
    seen = [False] * l
    comps = []
    for start in range(l):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(l):
                if not seen[j] and (block[i][j] != 0 or block[j][i] != 0):
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        comps.append(sorted(comp))
    out = []
    for comp in comps:
        r = len(comp)
        found = None
        for letter in "ABCDEFG":
            lo, hi = RANK_BOUNDS[letter]
            if not lo <= r <= hi:
                continue
            target = cartan_matrix(letter, r)
            for perm in permutations(comp):
                if all(block[perm[i]][perm[j]] == target[i][j]
                       for i in range(r) for j in range(r)):
                    found = (letter, r, tuple(perm))
                    break
            if found:
                break
        if found is None:
            raise ValueError("block is not a Cartan matrix of finite type")
        out.append(found)
    return out
