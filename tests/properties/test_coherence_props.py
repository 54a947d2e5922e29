"""Property-based oracle for the static coherence analyzer.

For randomly generated affine nests — including triangular bounds and
``when`` guards — an *independent* replay written here from scratch
(its own ceil-block / chunked / guided / rotating-dynamic partitioner,
its own one-access round-robin merge, its own set-based MSI automaton)
computes per-thread cold and invalidation misses at line granularity.
The analyzer's static prediction must match it exactly, and its
classification claims must hold up:

* per-thread invalidation, cold, and upgrade counts are equal;
* every witness names two elements that really share the line, with
  ``kind`` matching element identity (same element = true sharing);
* ``screened_out`` is exactly the arrays none of whose lines two
  threads touch in the brute-force replay.

Whether the outer axis is partitioned at all follows the parallelism
verdict (its own soundness is property-tested separately); this file
tests the coherence replay on top of it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import parse, validate
from repro.static import analyze_coherence, analyze_parallelism

LINE_ELEMS = 4  # 32-byte lines of 8-byte elements

SHIFT = st.integers(-1, 1)


def build(source: str):
    return validate(parse(source))


@st.composite
def affine_nest(draw):
    """One doubly nested affine kernel plus everything the oracle needs."""
    n = draw(st.integers(6, 9))
    tri = draw(st.booleans())
    guarded = draw(st.booleans())
    two_stmts = draw(st.booleans())
    steps = draw(st.integers(1, 2))
    threads = draw(st.sampled_from([2, 3, 4]))
    schedule = draw(
        st.sampled_from(["static", "static,2", "guided", "dynamic"])
    )
    ws_j, ws_i = draw(SHIFT), draw(SHIFT)
    rs_j, rs_i = draw(SHIFT), draw(SHIFT)
    r2_j, r2_i = draw(SHIFT), draw(SHIFT)

    hij = "i" if tri else "N - 1"
    stmt1 = (
        f"A[j + {ws_j}, i + {ws_i}] = "
        f"f(A[j + {rs_j}, i + {rs_i}], B[j, i])"
    )
    if guarded:
        stmt1 = f"when j in [3:N - 2] {{ {stmt1} }}"
    stmt2 = f"B[j, i] = g(A[j + {r2_j}, i + {r2_i}])" if two_stmts else ""
    src = f"""
    program rnd
    param N
    real A[N + 2, N + 2], B[N + 2, N + 2]
    for i = 2, N - 1 {{
      for j = 2, {hij} {{
        {stmt1}
        {stmt2}
      }}
    }}
    """
    spec = {
        "n": n,
        "tri": tri,
        "guarded": guarded,
        "two_stmts": two_stmts,
        "steps": steps,
        "threads": threads,
        "schedule": schedule,
        "shifts": (ws_j, ws_i, rs_j, rs_i, r2_j, r2_i),
    }
    return build(src), spec


# -- the independent oracle ----------------------------------------------------


def iteration_accesses(spec, i, j):
    """[(global_key, is_write)] of iteration (i, j), in executed order."""
    n = spec["n"]
    stride = n + 2  # column-major: first subscript has stride 1
    base_b = (n + 2) * (n + 2)  # B declared after A
    ws_j, ws_i, rs_j, rs_i, r2_j, r2_i = spec["shifts"]

    def a_key(s1, s2):
        return (s1 - 1) + (s2 - 1) * stride

    def b_key(s1, s2):
        return base_b + (s1 - 1) + (s2 - 1) * stride

    accs = []
    if (not spec["guarded"]) or (3 <= j <= n - 2):
        accs.append((a_key(j + rs_j, i + rs_i), False))
        accs.append((b_key(j, i), False))
        accs.append((a_key(j + ws_j, i + ws_i), True))
    if spec["two_stmts"]:
        accs.append((a_key(j + r2_j, i + r2_i), False))
        accs.append((b_key(j, i), True))
    return accs


def partition(lo, hi, threads, schedule, invocation):
    """Per-thread chunk lists, written from the OpenMP definitions
    (``dynamic``: the static blocks, owners rotated by one per
    invocation of the parallel loop)."""
    chunks = [[] for _ in range(threads)]
    if hi < lo:
        return chunks
    if schedule in ("static", "dynamic"):
        shift = invocation if schedule == "dynamic" else 0
        size = -(-(hi - lo + 1) // threads)
        for t in range(threads):
            a = lo + t * size
            if a <= hi:
                chunks[(t + shift) % threads].append(
                    (a, min(hi, a + size - 1))
                )
        return chunks
    if schedule == "static,2":
        a, c = lo, 0
        while a <= hi:
            chunks[c % threads].append((a, min(hi, a + 1)))
            a += 2
            c += 1
        return chunks
    assert schedule == "guided"
    a, c = lo, 0
    while a <= hi:
        size = max(1, -(-(hi - a + 1) // threads))
        chunks[c % threads].append((a, min(hi, a + size - 1)))
        a += size
        c += 1
    return chunks


def thread_stream(spec, chunks):
    """One thread's access stream: its outer-iteration chunks in order,
    full inner loop per iteration."""
    n = spec["n"]
    out = []
    for a, b in chunks:
        for i in range(a, b + 1):
            hij = i if spec["tri"] else n - 1
            for j in range(2, hij + 1):
                out.extend(iteration_accesses(spec, i, j))
    return out


def brute_force(spec, partitioned):
    """Merge per-thread streams round-robin and replay set-based MSI.

    Returns (per-thread cold, per-thread invalidations, upgrades,
    the set of threads that ever touched each line, access total).
    """
    n, threads = spec["n"], spec["threads"]
    cold = [0] * threads
    inval = [0] * threads
    upgrades = 0
    total = 0
    valid: dict[int, set] = {}
    ever: dict[int, set] = {}
    for step in range(spec["steps"]):
        if partitioned:
            streams = [
                thread_stream(spec, chunks)
                for chunks in partition(
                    2, n - 1, threads, spec["schedule"], step
                )
            ]
        else:
            streams = [thread_stream(spec, [(2, n - 1)])]
            streams += [[] for _ in range(threads - 1)]
        pos = [0] * threads
        while any(p < len(s) for p, s in zip(pos, streams)):
            for t in range(threads):
                if pos[t] >= len(streams[t]):
                    continue
                key, is_write = streams[t][pos[t]]
                pos[t] += 1
                total += 1
                line = key // LINE_ELEMS
                v = valid.setdefault(line, set())
                e = ever.setdefault(line, set())
                if t not in v:
                    if t in e:
                        inval[t] += 1
                    else:
                        cold[t] += 1
                if is_write:
                    if v - {t}:
                        upgrades += 1
                    valid[line] = {t}
                else:
                    v.add(t)
                e.add(t)
    return cold, inval, upgrades, ever, total


# -- the properties ------------------------------------------------------------


@given(affine_nest())
@settings(max_examples=50, deadline=None)
def test_static_prediction_matches_independent_replay(case):
    program, spec = case
    n, threads = spec["n"], spec["threads"]
    parallelism = analyze_parallelism(program, {"N": n})
    prof = analyze_coherence(
        program, {"N": n}, threads=threads, schedule=spec["schedule"],
        steps=spec["steps"], parallelism=parallelism,
    )
    partitioned = 0 in parallelism.parallel_nests() and threads > 1
    cold, inval, upgrades, _, total = brute_force(spec, partitioned)
    assert prof.accesses == total, (
        f"enumerated {prof.accesses} accesses, oracle ran {total} ({spec})"
    )
    assert prof.invalidations == tuple(inval), (
        f"invalidations {prof.invalidations} != oracle {inval} ({spec})"
    )
    assert prof.cold == tuple(cold), (
        f"cold {prof.cold} != oracle {cold} ({spec})"
    )
    assert prof.upgrades == upgrades, (
        f"upgrades {prof.upgrades} != oracle {upgrades} ({spec})"
    )


@given(affine_nest())
@settings(max_examples=50, deadline=None)
def test_witnesses_and_screens_hold_up(case):
    program, spec = case
    n, threads = spec["n"], spec["threads"]
    parallelism = analyze_parallelism(program, {"N": n})
    prof = analyze_coherence(
        program, {"N": n}, threads=threads, schedule=spec["schedule"],
        steps=spec["steps"], parallelism=parallelism,
    )
    for w in prof.witnesses:
        # both elements really live on the named line
        assert w.elem_a // LINE_ELEMS == w.line, (w.render(), spec)
        assert w.elem_b // LINE_ELEMS == w.line, (w.render(), spec)
        assert w.thread_a != w.thread_b
        # kind matches element identity: same element = true sharing
        if w.kind == "true":
            assert w.elem_a == w.elem_b, (w.render(), spec)
        else:
            assert w.elem_a != w.elem_b, (w.render(), spec)
    # screened_out is exactly the arrays without a shared line (a line
    # belongs to the array of its first element)
    partitioned = 0 in parallelism.parallel_nests() and threads > 1
    _, _, _, ever, _ = brute_force(spec, partitioned)
    size = (n + 2) * (n + 2)
    shared = {
        "A" if line * LINE_ELEMS < size else "B"
        for line, touched in ever.items()
        if len(touched) >= 2
    }
    assert set(prof.screened_out) == {"A", "B"} - shared, (
        f"screened_out {prof.screened_out} but the replay shares lines "
        f"of {sorted(shared)} ({spec})"
    )
