"""Property test: the indexed backfill scheduler equals the linear one.

The availability index (free-core buckets + merge heap) and the
completion calendar (sorted job-end list feeding the shadow-time probe)
are pure perf rewrites of the linear oracle in
``tests/oracles/control_plane.py``; for any job mix the two controllers
must start, place and finish every job identically.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import HostNode
from repro.sim import Environment
from repro.wlm import JobSpec, SlurmController
from tests.oracles.control_plane import control_plane_oracle

job_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=4),      # nodes
        st.sampled_from((0, 1, 2, 4)),              # cores_per_node (0 = all)
        st.floats(min_value=1.0, max_value=150.0),  # duration
        st.booleans(),                              # exclusive
        st.integers(min_value=0, max_value=50),     # priority
        st.sampled_from((200.0, 10_000.0)),         # time_limit
    ),
    min_size=1,
    max_size=14,
)


def run(jobs):
    env = Environment()
    hosts = [HostNode(name=f"n{i}") for i in range(4)]
    ctl = SlurmController(env, hosts)
    submitted = [
        ctl.submit(JobSpec(
            name=f"j{i}",
            user_uid=1000 + i,
            nodes=n,
            duration=d,
            exclusive=ex,
            priority=prio,
            cores_per_node=cores or None,
            time_limit=limit,
        ))
        for i, (n, cores, d, ex, prio, limit) in enumerate(jobs)
    ]
    env.run(until=40_000)
    return [
        (j.state.name, j.start_time, j.end_time, tuple(j.allocated_nodes))
        for j in submitted
    ]


@settings(max_examples=30, deadline=None)
@given(job_strategy)
def test_indexed_backfill_matches_naive_oracle(jobs):
    indexed = run(jobs)
    with control_plane_oracle():
        assert run(jobs) == indexed
