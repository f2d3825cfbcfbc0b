"""Per-group top-k (the ROW_NUMBER() <= k window) vs pandas brute force."""

import ray.data as rd


def test_grouped_topk_matches_pandas():
    import numpy as np
    import pandas as pd

    from knowledge_graph_ray.functions.grouping import grouped_topk

    rng = np.random.RandomState(3)
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 8, 300),
            "v": rng.randint(0, 50, 300).astype("int64"),
            "id": np.arange(300, dtype="int64"),
        }
    )
    got = grouped_topk(
        rd.from_pandas(df).repartition(8), ["g"], "v", k=3, tie_cols=["id"],
        num_buckets=4,
    ).to_pandas().sort_values(["g", "rk"]).reset_index(drop=True)
    exp = (
        df.sort_values(["v", "id"], ascending=[False, True], kind="stable")
        .groupby("g")
        .head(3)
        .sort_values(["g", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["g", "v", "id"]], exp[["g", "v", "id"]], check_dtype=False
    )
    assert (got.groupby("g")["rk"].apply(lambda s: list(s) == list(range(1, len(s) + 1)))).all()
