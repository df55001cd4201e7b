"""Brute-force 3-connectivity: the reference for build_complex's check.

``brute_force_three_connected`` is the check build_complex ran before it
used the face-intersection characterization, kept unchanged: one BFS per
vertex pair, O(V^3), naming the first separating pair in lexicographic
order.
"""

from collections import deque

from midscribe.errors import NonPolyhedral


def brute_force_three_connected(n_vertices, edges):
    if n_vertices < 4:
        raise NonPolyhedral("fewer than 4 vertices")
    adj = [[] for _ in range(n_vertices)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # brute-force: removing any vertex pair must leave the rest connected
    for x in range(n_vertices):
        for y in range(x + 1, n_vertices):
            rest = [v for v in range(n_vertices) if v != x and v != y]
            seen = {rest[0]}
            queue = deque([rest[0]])
            while queue:
                v = queue.popleft()
                for w in adj[v]:
                    if w != x and w != y and w not in seen:
                        seen.add(w)
                        queue.append(w)
            if len(seen) != len(rest):
                raise NonPolyhedral("graph separates after removing vertices "
                                    "%d and %d (not 3-connected)" % (x, y))
