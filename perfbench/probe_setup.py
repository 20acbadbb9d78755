"""Set-up cost of a fresh interpreter: ``import dynid`` plus the first,
cold ``compute_base_map`` on the UR10 chain, then a second, warm one.

Prints one JSON object with import_s, cold_map_s and warm_map_s.  The
caller chooses the BLAS thread setting through the environment.
"""
import json
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import dynid
    t1 = time.perf_counter()
    from dynid.kinematics import ur10_chain
    from dynid.reduction import compute_base_map
    compute_base_map(ur10_chain())
    t2 = time.perf_counter()
    compute_base_map(ur10_chain())
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "cold_map_s": t2 - t1,
                      "warm_map_s": t3 - t2}))
