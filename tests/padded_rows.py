"""``regret_rows`` yields each row over its group's members only; the tests
written against rows over every profile read them through ``padded``."""


def padded(rows, width):
    """Each row of ``regret_rows`` as (agent, recommendation, deviation,
    follow, deviate, scale), with follow and deviate over all ``width``
    profile positions, 0 outside the row's members."""
    for i, rec, T, members, follow, deviate, scale in rows:
        dense_follow, dense_deviate = [0] * width, [0] * width
        for k, u, v in zip(members, follow, deviate, strict=True):
            dense_follow[k], dense_deviate[k] = u, v
        yield i, rec, T, dense_follow, dense_deviate, scale
