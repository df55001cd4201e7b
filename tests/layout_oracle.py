"""Reference for the dart sweep of ``midscribe.packing.layout_circles``.

propagate is ``packing._propagate`` as it was before each pass skipped
the darts that can place nothing more: every pass walks every dart of the
complex. Tests require the layout to place the same circles, in the same
order and bit for bit.
"""

from midscribe.errors import LayoutInconsistency


def propagate(P, box, r, centers, tangency):
    """Fill in the remaining circles by sweeping over all darts, pass after
    pass, until a pass places nothing."""
    walls = {("v", box.v_left), ("v", box.v_right),
             ("f", box.f0), ("f", box.g_top)}

    def finite(node):
        return node not in walls

    for _ in range(P.n_edges + 2):
        progress = False
        for e, (a, b) in enumerate(P.edges):
            for (v, w) in ((a, b), (b, a)):
                L = P.face_of_dart[(v, w)]
                R = P.face_of_dart[(w, v)]
                nv, nL, nw, nR = ("v", v), ("f", L), ("v", w), ("f", R)
                if not (finite(nv) and finite(nL)):
                    continue
                if nv not in centers or nL not in centers:
                    continue
                u = (centers[nL] - centers[nv]) / complex(r[nv], -r[nL])
                u /= abs(u)
                t = centers[nv] + r[nv] * u
                if e not in tangency:
                    tangency[e] = t
                    progress = True
                if finite(nw) and nw not in centers:
                    centers[nw] = centers[nv] + (r[nv] + r[nw]) * u
                    progress = True
                if finite(nR) and nR not in centers:
                    centers[nR] = t + 1j * r[nR] * u
                    progress = True
        if not progress:
            break
    missing = [u for u in box.nodes if u not in centers]
    if missing:
        raise LayoutInconsistency("could not place circles for nodes %r"
                                  % missing)
