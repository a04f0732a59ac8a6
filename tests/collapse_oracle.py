"""The elementary-collapse walk on a table of single faces, kept as an
oracle for the tests.

`chaintop.simplicial.collapse_free_pairs` reads each cell's faces as the
one tuple the set stores for it. Before that, a simplicial set stored
one entry per face, keyed (cell, i), and the walk read that table:
`collapse_by_face_keys` is that walk, run on a (cell, i) table built
from the space's `face`. It returns what the walk keeps: the cells of
each nonempty dimension, in stored order, and the (cell, i) table of
their faces.
"""


def face_table(space) -> dict:
    """{(cell, i): d_i cell} for every cell of positive dimension."""
    return {
        (cid, i): space.face(cid, i)
        for n in space.dimensions()
        if n
        for cid in space.nondegenerate(n)
        for i in range(n + 1)
    }


def collapse_by_face_keys(space):
    """(cells, faces) of the Y that `collapse_free_pairs` leaves."""
    faces = face_table(space)
    uses = {}
    for ref in faces.values():
        uses[ref.base] = uses.get(ref.base, 0) + 1
    removed = set()
    walk = space.complete
    while walk:
        walk = False
        for n in sorted(space.cells, reverse=True):
            if n < 3:
                break
            for sigma in space.cells[n]:
                if sigma in removed or uses.get(sigma):
                    continue
                for i in range(n + 1):
                    tau = faces[(sigma, i)]
                    if not tau.word and uses[tau.base] == 1:
                        break
                else:
                    continue
                for cid in (sigma, tau.base):
                    removed.add(cid)
                    for k in range(space.dim_of(cid) + 1):
                        uses[faces[(cid, k)].base] -= 1
                walk = True
    cells = {}
    for n, ids in space.cells.items():
        kept = tuple(cid for cid in ids if cid not in removed)
        if kept:
            cells[n] = kept
    kept_faces = {key: ref for key, ref in faces.items() if key[0] not in removed}
    return cells, kept_faces
