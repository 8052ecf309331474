"""Reference water-fills the fabric fast paths must match bit for bit.

* :func:`reference_maxmin` is the event-driven max-min loop
  :func:`repro.fabric.maxmin.maxmin_allocate` was derived from: one full
  O(links) minimum and ``==`` scan per freeze event, and a per-flow
  Python loop to freeze flows and charge their links.
* :func:`reference_waterfill` is the padded-argsort gateway water-fill
  that :func:`repro.fabric.batchroute._grouped_waterfill` replaced with a
  closed form: each candidate row's sequential picks are the smallest
  keys of ``(load + s) * m + column`` over ``s < k_max``.

Both are kept only as oracles (the ``chunk=1`` idiom of
:mod:`repro.fabric.batchroute`, like :mod:`timeflow_oracle`).
"""

import numpy as np
from scipy import sparse

from repro.errors import SimulationError
from repro.fabric.maxmin import MaxMinResult

#: Sentinel load of padded candidate slots (the batch planner's value).
PAD_LOAD = np.int64(1) << 40


def _incidence(paths, n_links: int) -> sparse.csr_matrix:
    if hasattr(paths, "indptr"):
        indices = np.asarray(paths.indices, dtype=np.int64)
        indptr = np.asarray(paths.indptr, dtype=np.int64)
        cols = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        data = np.ones(indices.size, dtype=np.float64)
        return sparse.csr_matrix((data, (indices, cols)),
                                 shape=(n_links, len(indptr) - 1))
    rows, cols = [], []
    for f, path in enumerate(paths):
        for link in path:
            rows.append(link)
            cols.append(f)
    data = np.ones(len(rows), dtype=np.float64)
    return sparse.csr_matrix((data, (rows, cols)), shape=(n_links, len(paths)))


def reference_maxmin(capacities, paths, demands=None
                     ) -> tuple[MaxMinResult, int]:
    """Max-min rates by the per-flow event loop (valid input only), and
    the number of freeze events it took."""
    n_links = len(capacities)
    n_flows = len(paths)
    cap = np.asarray(capacities, dtype=np.float64)
    if n_flows == 0:
        return MaxMinResult(np.zeros(0), np.zeros(n_links),
                            np.zeros(0, dtype=np.int64)), 0

    A = _incidence(paths, n_links)
    dem = (np.full(n_flows, np.inf) if demands is None
           else np.asarray(demands, dtype=np.float64))

    rates = np.zeros(n_flows)
    active = np.ones(n_flows, dtype=bool)
    bottleneck = np.full(n_flows, -1, dtype=np.int64)
    path_lens = (np.diff(paths.indptr) if hasattr(paths, "indptr")
                 else np.asarray([len(p) for p in paths]))
    linkless = path_lens == 0
    rates[linkless] = dem[linkless]
    active[linkless] = False

    indptr, nnz_flow = A.indptr, A.indices
    nnz_link = np.repeat(np.arange(n_links), np.diff(indptr))
    n_active = np.bincount(nnz_link[active[nnz_flow]],
                           minlength=n_links).astype(np.float64)
    if hasattr(paths, "indptr"):
        f_indices = np.asarray(paths.indices, dtype=np.int64)
        f_indptr = np.asarray(paths.indptr, dtype=np.int64)

        def links_of(flow):
            return f_indices[f_indptr[flow]:f_indptr[flow + 1]]
    else:
        def links_of(flow):
            return np.asarray(paths[flow], dtype=np.int64)

    head_cap = cap.copy()
    with np.errstate(divide="ignore"):
        t_sat = np.where(n_active > 0,
                         head_cap / np.maximum(n_active, 1.0), np.inf)
    cap_order = np.argsort(dem, kind="stable")
    cap_ptr = 0
    n_remaining = int(active.sum())
    iterations = 0
    for _ in range(n_links + n_flows + 1):
        if n_remaining == 0:
            break
        iterations += 1
        while cap_ptr < n_flows and not active[cap_order[cap_ptr]]:
            cap_ptr += 1
        t_cap = dem[cap_order[cap_ptr]] if cap_ptr < n_flows else np.inf
        t_link = t_sat.min()
        level = min(t_link, t_cap)
        if not np.isfinite(level):
            raise SimulationError("unbounded allocation")
        frozen = []
        if t_link <= t_cap:
            for link in np.flatnonzero(t_sat == t_link):
                t_sat[link] = np.inf
                for f in nnz_flow[indptr[link]:indptr[link + 1]]:
                    if active[f]:
                        active[f] = False
                        rates[f] = level
                        bottleneck[f] = link
                        frozen.append(f)
        if t_cap <= t_link:
            while cap_ptr < n_flows:
                f = cap_order[cap_ptr]
                if not active[f]:
                    cap_ptr += 1
                elif dem[f] <= level:
                    active[f] = False
                    rates[f] = dem[f]
                    frozen.append(f)
                    cap_ptr += 1
                else:
                    break
        n_remaining -= len(frozen)
        if frozen:
            for f in frozen:
                head_cap[links_of(f)] -= rates[f]
            changed = np.concatenate([links_of(f) for f in frozen])
            np.subtract.at(n_active, changed, 1.0)
            head_cap[changed] = np.maximum(head_cap[changed], 0.0)
            with np.errstate(divide="ignore"):
                t_sat[changed] = np.where(
                    n_active[changed] > 0,
                    head_cap[changed] / np.maximum(n_active[changed], 1.0),
                    np.inf)
    else:
        raise SimulationError("max-min allocation did not converge")

    flow_per_link = A @ rates
    with np.errstate(divide="ignore", invalid="ignore"):
        util = np.where(cap > 0, flow_per_link / cap, 0.0)
    return MaxMinResult(rates, util, bottleneck), iterations


def reference_waterfill(table, loads, pid, order, register):
    """``_grouped_waterfill`` by one padded argsort per candidate row."""
    sort = np.lexsort((order, pid))
    spid = pid[sort]
    starts = np.empty(len(spid), dtype=bool)
    starts[0], starts[1:] = True, spid[1:] != spid[:-1]
    grp = np.cumsum(starts) - 1
    rank = np.arange(len(spid)) - np.flatnonzero(starts)[grp]
    if not register:
        rank = np.zeros_like(rank)
    upid = spid[starts]

    links = table[upid]
    m = links.shape[1]
    cand_loads = np.where(links >= 0,
                          loads[np.clip(links, 0, None)], PAD_LOAD)
    k_max = int(rank.max()) + 1
    key = (cand_loads[:, :, None] + np.arange(k_max)[None, None, :]) * m \
        + np.arange(m)[None, :, None]
    flat_key = key.reshape(len(upid), m * k_max)
    picks = np.argsort(flat_key, axis=1)[:, :k_max]
    cand = picks // k_max
    implied = np.take_along_axis(flat_key, picks, axis=1) // m

    cand_req = cand[grp, rank]
    out_cand = np.empty_like(cand_req)
    out_cand[sort] = cand_req
    out_implied = np.empty(len(pid), dtype=np.int64)
    out_implied[sort] = implied[grp, rank]
    out_link = np.empty(len(pid), dtype=np.int64)
    out_link[sort] = table[spid, cand_req]
    return out_cand, out_implied, out_link
