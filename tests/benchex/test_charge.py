"""The servers charge each request its own calibrated pricing cost.

CTime is ``request.n_options × NS_PER_OPTION`` for the batch the client
actually sent, jitter included; nothing is priced, so the deploy draws
no server-side random stream.
"""

from collections import Counter

from repro.benchex import BenchExConfig, BenchExFanIn, BenchExPair, run_pairs
from repro.experiments import Testbed
from repro.finance import NS_PER_OPTION
from repro.units import SEC

#: Every other compute the server VCPU gets (verbs posts, hypercalls) is
#: at most 10 us; a jittered 125-option batch costs at least 65 us.
_BATCH_FLOOR_NS = 50_000


def _record_requests(client, made):
    make = client._make_request

    def recording(request_id):
        request = make(request_id)
        made.append(request.n_options * NS_PER_OPTION)
        return request

    client._make_request = recording


def _record_batches(vcpu, charged):
    compute = vcpu.compute

    def recording(duration_ns):
        if duration_ns >= _BATCH_FLOOR_NS:
            charged.append(duration_ns)
        return compute(duration_ns)

    vcpu.compute = recording


def test_single_server_charges_each_requests_own_batch():
    bed = Testbed.paper_testbed(seed=4)
    s, c = bed.node("server-host"), bed.node("client-host")
    cfg = BenchExConfig(name="rep", request_limit=60, ctime_jitter=0.2)
    pair = BenchExPair(bed, s, c, cfg)
    made, charged = [], []

    def deploy(env):
        yield from pair.deploy()
        _record_requests(pair.client, made)
        _record_batches(pair.server_dom.vcpu, charged)
        pair.start()

    bed.env.process(deploy(bed.env))
    bed.env.run(until=int(0.2 * SEC))
    assert pair.server.requests_served == 60
    assert charged == made
    assert len(set(charged)) > 1  # the jitter reached the charge


def test_fanin_server_charges_each_requests_own_batch():
    bed = Testbed.paper_testbed(seed=4)
    s, c = bed.node("server-host"), bed.node("client-host")
    cfg = BenchExConfig(name="fan", request_limit=60, ctime_jitter=0.2)
    fan = BenchExFanIn(bed, s, c, cfg, n_clients=3)
    made, charged = [], []

    def deploy(env):
        yield from fan.deploy()
        for client in fan.clients:
            _record_requests(client, made)
        _record_batches(fan.server_dom.vcpu, charged)
        fan.start()

    bed.env.process(deploy(bed.env))
    bed.env.run(until=int(0.2 * SEC))
    assert fan.server.requests_served == 60
    assert len(charged) == 60
    # Arrival order interleaves the clients; at most one request per
    # client is still unserved when the server reaches its limit.
    assert not Counter(charged) - Counter(made)
    assert len(made) - len(charged) <= fan.n_clients
    assert len(set(charged)) > 1


def test_deploy_draws_no_server_stream():
    bed = Testbed.paper_testbed(seed=4)
    s, c = bed.node("server-host"), bed.node("client-host")
    pair = BenchExPair(bed, s, c, BenchExConfig(name="rep", request_limit=5))
    fan = BenchExFanIn(
        bed, s, c, BenchExConfig(name="fan", request_limit=5), n_clients=2
    )
    run_pairs(bed, [pair])
    bed.env.process(fan.deploy())
    bed.env.run(until=bed.env.now + int(0.05 * SEC))
    assert fan.server is not None
    streams = set(bed.rng._streams)
    assert {"rep/client", "fan/client0", "fan/client1"} <= streams
    assert not [name for name in streams if name.endswith("/server")]
