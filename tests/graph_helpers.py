"""Reading a ``CSRGraph`` back as the edges the tests built it from."""


def edge_pairs(graph) -> list[tuple[int, int]]:
    """Every directed edge as ``(src, dst)``, in CSR order."""
    return [(src, int(dst)) for src in range(graph.num_vertices)
            for dst in graph.neighbors(src)]
