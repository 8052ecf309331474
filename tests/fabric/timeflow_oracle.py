"""Reference integration of one timeflow scenario, flow by flow.

:meth:`TimeflowEngine.run_ensemble` and the one-column
:meth:`TimeflowEngine.run` share one batched step loop.  This module
keeps the plain per-flow loop they were derived from — full link
vectors, one matvec per step, no column state — as the oracle every
ensemble column must match **bit for bit** (the ``chunk=1`` idiom of
:mod:`repro.fabric.batchroute`).  It reuses the engine's planned paths,
so a comparison is only defined against one engine.
"""

import numpy as np

from repro import obs


def reference_run(engine, cfg=None):
    """Step ``engine``'s flows under ``cfg`` (default: its own config)."""
    if cfg is None:
        cfg = engine.config
    else:
        engine._check_shared_axes(cfg)
    n = len(engine.flows)
    dt = cfg.dt_s
    n_steps = int(round(cfg.horizon_s / dt))
    control_every = max(1, int(round(cfg.control_interval_s / dt)))
    threshold = cfg.ecn_k * cfg.mtu_bytes
    A, AT, caps = engine.A, engine.A.T.tocsr(), engine.caps

    st = engine._flow_arrays()
    size, start, finite = st["size"], st["start"], st["finite"]
    b_idx, start_b = st["b_idx"], st["start_b"]
    period_b, on_b = st["period_b"], st["on_b"]
    cls_of, repeats = st["cls_of"], st["repeats"]
    rate_floor = cfg.min_rate_frac * engine.peak
    growth = cfg.growth_frac * engine.peak

    rate = engine.rate_cap.copy()
    remaining = size.copy()
    xfer_start = start.copy()
    injected = np.zeros(n)
    done = np.zeros(n, dtype=bool)
    completed = np.zeros(n, dtype=np.int64)
    q = np.zeros(len(caps))
    arr_sum = np.zeros(len(caps))
    fct = {c: [] for c in st["cls_names"]}
    wire = {c: [] for c in st["cls_names"]}
    max_q = 0.0
    marks = 0

    with obs.span("fabric.timeflow.reference", n_flows=n, steps=n_steps):
        for step in range(n_steps):
            t = step * dt
            on = ~done & (start <= t)
            if b_idx.size:
                phase = np.mod(t - start_b, period_b)
                on[b_idx[phase >= on_b]] = False

            inj = np.where(on, np.minimum(rate, remaining / dt), 0.0)
            arrivals = A @ inj
            arr_sum += arrivals
            q += (arrivals - caps) * dt
            np.clip(q, 0.0, None, out=q)
            max_q = max(max_q, float(q.max()))

            if cfg.ecn and step % control_every == 0:
                marked = q > threshold
                if marked.any():
                    fm = (AT @ marked.astype(np.int8)) > 0
                    fm &= on
                    rate[fm] *= 1.0 - cfg.backoff
                    marks += int(fm.sum())
                else:
                    fm = np.zeros(n, dtype=bool)
                grow = on & ~fm
                rate[grow] += growth[grow]
                np.clip(rate, rate_floor, engine.rate_cap, out=rate)

            injected += inj * dt
            remaining -= inj * dt
            finishing = finite & ~done & (remaining <= 1e-9) & on
            if finishing.any():
                t_end = t + dt
                delay = engine.base_latency + AT @ (q / caps)
                for f in np.flatnonzero(finishing):
                    completed[f] += 1
                    if t_end >= cfg.warmup_s:
                        fct[cls_of[f]].append(t_end - xfer_start[f] + delay[f])
                        wire[cls_of[f]].append(float(delay[f]))
                    if repeats[f]:
                        remaining[f] = size[f]
                        xfer_start[f] = t_end
                    else:
                        done[f] = True

    return engine._finalise(cfg, st=st, injected=injected,
                            completed=completed, fct=fct, wire=wire,
                            arr_sum=arr_sum, max_q=max_q, marks=marks,
                            n_steps=n_steps)
