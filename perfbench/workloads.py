"""The three benchmark workloads, driven through the program's public API.

Each workload builds its world in :meth:`Workload.setup`, then runs
*units* in order: :meth:`prepare` (untimed: seeded choices, pre-built
wires), :meth:`execute` (the timed region) and :meth:`finish` (untimed:
output checks, per-operation outcome records).  A unit is one operation
for the closed loops and one arrival wave for the open-loop storm.

Why these three (see README.md for the layer map):

* ``athena_login`` -- 5,000 users over inline KDCs: the population is
  larger than every program cache, so each login takes the cold path
  (client, five netsim round trips, the single-request KDC plane,
  scalar DES).
* ``morning_storm`` -- 650 stations that already hold sessions post
  AS and TGS requests faster than one queued KDC serves them: the
  working set fits the caches, batches reach the wide-lane width, and
  client-side code is bypassed.
* ``kadmin_churn`` -- KDBM writes beside logins, with delta kprop
  rounds: every write fires the database mutation listeners that flush
  the process-global skeleton cache, so a read-side cache gain that
  costs writers shows up here.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.apps.kerberized import (
    AppSession,
    KerberizedChannel,
    KerberizedServer,
    Protection,
)
from repro.core.authenticator import build_authenticator
from repro.core.locator import StaticLocator
from repro.core.messages import (
    AsRequest,
    MessageType,
    TgsRequest,
    decode_message,
    encode_message,
)
from repro.crypto import string_to_key
from repro.encode import Decoder
from repro.kdbm.client import KdbmClient
from repro.netsim import Network
from repro.netsim.ports import KERBEROS_PORT
from repro.principal import Principal, tgs_principal
from repro.realm import Realm
from repro.runtime import WorkQueueConfig

from pace import HostPace, Mark

REALM = "ATHENA.MIT.EDU"
#: Port every echo application server listens on (one per server host).
APP_PORT = 2100
#: One-way wire delay, simulated seconds.
LATENCY = 0.001
#: Ticket lifetime requested by the storm's pre-built requests.
STORM_LIFE = 8 * 3600.0


class Unit(NamedTuple):
    """One prepared unit of work: its latency class, how many operations
    it counts for, and the workload-specific payload."""

    index: int
    kind: str
    ops: int
    payload: object


class EchoServer(KerberizedServer):
    """A Kerberized service that returns what it is sent."""

    def handle(self, session: AppSession, data: bytes) -> bytes:
        return data


def zipf_picker(rng: random.Random, n: int, s: float = 1.0):
    """Draw indexes 0..n-1 with probability proportional to 1/(i+1)^s."""
    cum, total = [], 0.0
    for i in range(n):
        total += 1.0 / (i + 1) ** s
        cum.append(total)

    def pick() -> int:
        return min(bisect.bisect_left(cum, rng.random() * total), n - 1)

    return pick


def spread_stations(realm: Realm, count: int) -> list:
    """``count`` workstations whose preferred KDC rotates over the
    master and its slaves (Figure 10's load spreading)."""
    addresses = realm.kdc_addresses()
    stations = []
    for i in range(count):
        ws = realm.workstation()
        preferred = addresses[i % len(addresses)]
        ws.client.set_locator(realm.name, StaticLocator(
            [preferred] + [a for a in addresses if a != preferred]
        ))
        stations.append(ws)
    return stations


def dump_records(dump: bytes) -> Dict[str, bytes]:
    """The ``key -> record`` set inside a ``KerberosDatabase.dump()``
    (format v2: magic, realm, time, epoch, seq, count, entries)."""
    dec = Decoder(dump)
    dec.raw(8)
    dec.string()
    dec.f64()
    dec.u64()
    dec.u64()
    return {dec.string(): dec.bytes_() for _ in range(dec.u32())}


class Workload:
    name = ""
    #: Full-size and smoke-test-size parameters.
    SCALES: Dict[str, Dict[str, int]] = {}
    #: Untimed warm-up units, run before the first timed unit.
    WARMUP = 32
    #: Timed units the outcome digest covers (a run times at least these).
    DIGEST = 0
    #: Unit kinds whose latencies are the ``op_*`` and ``write_*``
    #: metrics.  ``"registration"`` stands for the principal
    #: registrations of set-up, for workloads that never write while timed.
    OP_KIND = "login"
    WRITE_KIND = "registration"

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.p = self.SCALES[scale]
        self.rng = random.Random(seed)
        #: Per-operation sim-side outcome records, in order.
        self.records: List[str] = []
        #: Output-check failures (each one makes the run incorrect).
        self.check_failures: List[str] = []
        self.failed = 0
        #: Times every interval the worker measures, set-up included.
        self.pace = HostPace()
        #: Marks around each principal registration made in set-up.
        self.registrations: List[Tuple[Mark, Mark]] = []

    # -- helpers -----------------------------------------------------------

    def _build(self, n_slaves: int, kdc_queue=None) -> None:
        self.net = Network(latency=LATENCY, seed=self.seed)
        self.realm = Realm(
            self.net, REALM, n_slaves=n_slaves, kdc_queue=kdc_queue
        )

    def _register(self, name: str, password: str) -> Principal:
        begin = self.pace.mark()
        principal = self.realm.add_user(name, password)
        self.registrations.append((begin, self.pace.mark()))
        return principal

    def _services(self, count: int) -> List[Principal]:
        return [
            self.realm.add_service("rcmd", f"server{i:02d}")[0]
            for i in range(count)
        ]

    def record(self, unit: Unit, outcome: str, sim_time: float) -> None:
        self.records.append(f"{unit.index}:{outcome}:{sim_time!r}")
        if outcome != "ok":
            self.failed += 1

    # -- the unit protocol -----------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, index: int) -> Unit:
        raise NotImplementedError

    def execute(self, unit: Unit):
        raise NotImplementedError

    def finish(self, unit: Unit, result) -> None:
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks run once, after the last unit."""


class AthenaLogin(Workload):
    """Closed loop of full Fig 5 -> 8 -> 6 -> 7 logins."""

    name = "athena_login"
    DIGEST = 100
    SCALES = {
        "full": {"users": 5000, "services": 65, "stations": 32, "slaves": 2},
        "tiny": {"users": 40, "services": 5, "stations": 4, "slaves": 2},
    }

    def setup(self) -> None:
        p = self.p
        self._build(p["slaves"])
        self.users = [
            (f"user{i:05d}", f"password-{i}") for i in range(p["users"])
        ]
        for name, password in self.users:
            self._register(name, password)
        self.services = self._services(p["services"])
        self.server_address = {}
        for service in self.services:
            host = self.net.add_host(service.instance)
            EchoServer(
                service, self.realm.srvtab_for(service), port=APP_PORT
            ).attach(host)
            self.server_address[service] = host.address
        self.realm.propagate()
        self.stations = spread_stations(self.realm, p["stations"])
        self.pick_service = zipf_picker(self.rng, len(self.services))

    def prepare(self, index: int) -> Unit:
        name, password = self.users[self.rng.randrange(len(self.users))]
        service = self.services[self.pick_service()]
        station = self.stations[index % len(self.stations)]
        payload = f"echo {index} {name}".encode()
        return Unit(index, "login", 1, (station, name, password, service, payload))

    def execute(self, unit: Unit):
        station, name, password, service, payload = unit.payload
        client = station.client
        try:
            client.kdestroy()
            client.kinit(name, password)
            client.get_credential(service)
            channel = KerberizedChannel(
                client, service, self.server_address[service], APP_PORT,
                protection=Protection.PRIVATE, mutual=True,
            )
            echoed = channel.call(payload)
            channel.close()
        except Exception as exc:  # an operation failure, counted below
            return exc
        return echoed

    def finish(self, unit: Unit, result) -> None:
        payload = unit.payload[4]
        if isinstance(result, Exception):
            outcome = f"fail:{type(result).__name__}"
            self.check_failures.append(f"login {unit.index}: {result!r}")
        elif result != payload:
            outcome = "bad_echo"
            self.check_failures.append(f"login {unit.index}: echo mismatch")
        else:
            outcome = "ok"
        self.record(unit, outcome, self.net.clock.now())


class StormRequest(NamedTuple):
    station: int
    kind: str              # "as" | "tgs"
    at: float              # simulated post time
    wire: bytes
    reply_key: object      # key the reply body is sealed in
    server: Principal      # principal the reply must name
    timestamp: float       # request time the reply must echo


def check_storm_reply(request: StormRequest, raw: Optional[bytes]) -> Optional[str]:
    """None if ``raw`` is the right reply to ``request``: an AS_REP that
    opens under the user's key and names the realm TGS, or a TGS_REP
    that opens under the session's TGT key and names the requested
    service.  Otherwise a description of what is wrong."""
    wanted = MessageType.AS_REP if request.kind == "as" else MessageType.TGS_REP
    if raw is None:
        return "no reply"
    try:
        mtype, message = decode_message(raw)
        if mtype != wanted:
            return f"got {mtype.name}, wanted {wanted.name}"
        body = message.open(request.reply_key)
    except Exception as exc:  # any decode/unseal failure is a wrong reply
        return f"reply does not open: {exc!r}"
    if not body.server.same_entity(request.server):
        return f"reply names {body.server}, wanted {request.server}"
    if request.kind == "as" and body.request_timestamp != request.timestamp:
        return "reply does not echo the request time"
    return None


class MorningStorm(Workload):
    """Open loop in sim time: waves of AS and TGS requests from stations
    that already hold sessions, against one queued KDC.  A wave's
    requests arrive over ``window_ms`` of sim time, about three times
    faster than the queue's simulated service rate, so batches fill to
    the wide-lane width."""

    name = "morning_storm"
    WARMUP = 1
    DIGEST = 2
    OP_KIND = "wave"
    SCALES = {
        "full": {"stations": 650, "services": 65, "window_ms": 130,
                 "batch": 64},
        "tiny": {"stations": 40, "services": 5, "window_ms": 10,
                 "batch": 8},
    }
    #: Each wave carries the requests of every WAVE_STRIDE-th station, so
    #: a station posts once per WAVE_STRIDE waves.
    WAVE_STRIDE = 3
    #: Share of re-logins (AS_REQ) among requests; the rest are TGS_REQs.
    AS_SHARE = 0.25

    def setup(self) -> None:
        p = self.p
        # One worker serving wide batches; the queue is deep enough that
        # nothing sheds, so every request is answered.
        self._build(0, kdc_queue=WorkQueueConfig(
            workers=1, batch_size=p["batch"], queue_limit=4 * p["stations"],
        ))
        self.kdc_address = self.realm.master_host.address
        self.tgs = tgs_principal(REALM)
        self.sessions = []
        passwords = []
        for i in range(p["stations"]):
            name, password = f"user{i:05d}", f"password-{i}"
            principal = self._register(name, password)
            self.sessions.append((principal, string_to_key(password)))
            passwords.append(password)
        self.services = self._services(p["services"])
        self.stations = [self.realm.workstation() for _ in self.sessions]
        self.tgts = []
        for ws, (principal, _key), password in zip(
            self.stations, self.sessions, passwords
        ):
            ws.client.kinit(principal.name, password)
            self.tgts.append(ws.client.cache.tgt(REALM, now=self.net.clock.now()))
        self.pick_service = zipf_picker(self.rng, len(self.services))

    def prepare(self, index: int) -> Unit:
        rng = self.rng
        start = self.net.clock.now() + 0.01
        window = self.p["window_ms"] / 1000.0
        requests = []
        for i in range(index % self.WAVE_STRIDE, len(self.stations),
                       self.WAVE_STRIDE):
            ws = self.stations[i]
            at = start + rng.random() * window
            principal, user_key = self.sessions[i]
            if rng.random() < self.AS_SHARE:
                request = AsRequest(
                    client=principal, service=self.tgs,
                    requested_life=STORM_LIFE, timestamp=at,
                )
                wire = encode_message(MessageType.AS_REQ, request)
                requests.append(StormRequest(
                    i, "as", at, wire, user_key, self.tgs, at
                ))
            else:
                service = self.services[self.pick_service()]
                tgt = self.tgts[i]
                request = TgsRequest(
                    service=service, requested_life=STORM_LIFE,
                    timestamp=at, tgt_realm=REALM, tgt=tgt.ticket,
                    authenticator=build_authenticator(
                        principal, ws.host.address, at, tgt.session_key
                    ),
                )
                wire = encode_message(MessageType.TGS_REQ, request)
                requests.append(StormRequest(
                    i, "tgs", at, wire, tgt.session_key, service, at
                ))
        requests.sort(key=lambda r: r.at)
        pendings: list = [None] * len(requests)
        posts = []
        for k, r in enumerate(requests):
            host = self.stations[r.station].host

            def post(k=k, host=host, wire=r.wire) -> None:
                pendings[k] = host.rpc_async(
                    self.kdc_address, KERBEROS_PORT, wire
                )

            posts.append((r.at, post))
        return Unit(index, "wave", len(requests), (requests, posts, pendings))

    def execute(self, unit: Unit):
        _requests, posts, _pendings = unit.payload
        runtime = self.net.runtime
        for at, post in posts:
            runtime.at(at, post, label="storm.post")
        runtime.run_until_idle()

    def finish(self, unit: Unit, result) -> None:
        requests, _posts, pendings = unit.payload
        for request, pending in zip(requests, pendings):
            reply = pending.reply if pending.error is None else None
            problem = check_storm_reply(request, reply)
            outcome = "ok"
            if problem is not None:
                outcome = f"{request.kind}:bad_reply"
                self.check_failures.append(
                    f"wave {unit.index} station {request.station}: {problem}"
                )
            self.record(unit, outcome, pending.resolved_at)


class KadminChurn(Workload):
    """Closed loop: ~20% KDBM writes, delta kprop every 16 writes, the
    rest logins by a hot reader set disjoint from the write targets."""

    name = "kadmin_churn"
    DIGEST = 150
    WRITE_KIND = "write"
    SCALES = {
        "full": {"readers": 512, "targets": 512, "services": 65,
                 "stations": 16, "slaves": 2},
        "tiny": {"readers": 16, "targets": 16, "services": 5,
                 "stations": 4, "slaves": 2},
    }
    WRITE_SHARE = 0.2
    WRITES_PER_ROUND = 16
    ADMIN = "churnadm"
    ADMIN_PASSWORD = "admin-password-never-changes"

    def setup(self) -> None:
        p = self.p
        self._build(p["slaves"])
        self.admin = self.realm.add_admin(self.ADMIN, self.ADMIN_PASSWORD)
        self.readers = [
            (f"reader{i:04d}", f"rpw-{i}") for i in range(p["readers"])
        ]
        self.targets = [f"target{i:04d}" for i in range(p["targets"])]
        for name, password in self.readers:
            self._register(name, password)
        for name in self.targets:
            self._register(name, f"tpw-{name}")
        self.services = self._services(p["services"])
        self.realm.propagate()
        self.stations = spread_stations(self.realm, p["stations"])
        master_only = StaticLocator([self.realm.master_host.address])
        admin_ws = self.realm.workstation()
        admin_ws.client.set_locator(REALM, master_only)
        self.kdbm = KdbmClient(admin_ws.client, self.realm.master_host.address)
        self.verifier = self.realm.workstation()
        self.verifier.client.set_locator(REALM, master_only)
        #: Current password of every principal a write touched.
        self.written: Dict[str, str] = {}
        self.writes = 0
        self.added = 0
        self.pick_service = zipf_picker(self.rng, len(self.services))

    def prepare(self, index: int) -> Unit:
        rng = self.rng
        if rng.random() < self.WRITE_SHARE:
            if rng.random() < 0.5:
                target = self.targets[rng.randrange(len(self.targets))]
                action = ("cpw", target, f"cpw-{target}-{index}")
            else:
                self.added += 1
                name = f"added{self.added:06d}"
                action = ("ank", name, f"apw-{name}")
            self.writes += 1
            propagate = self.writes % self.WRITES_PER_ROUND == 0
            return Unit(index, "write", 1, (action, propagate))
        name, password = self.readers[rng.randrange(len(self.readers))]
        service = self.services[self.pick_service()]
        station = self.stations[index % len(self.stations)]
        return Unit(index, "login", 1, (station, name, password, service))

    def execute(self, unit: Unit):
        try:
            if unit.kind == "write":
                (verb, name, password), propagate = unit.payload
                target = Principal(name, "", REALM)
                if verb == "cpw":
                    self.kdbm.admin_change_password(
                        self.admin, self.ADMIN_PASSWORD, target, password
                    )
                else:
                    self.kdbm.add_principal(
                        self.admin, self.ADMIN_PASSWORD, target, password
                    )
                if propagate:
                    result = self.realm.propagate()
                    if not result.all_ok:
                        return RuntimeError(f"kprop failed: {result.failures}")
            else:
                station, name, password, service = unit.payload
                station.client.kdestroy()
                station.client.kinit(name, password)
                station.client.get_credential(service)
        except Exception as exc:  # an operation failure, counted below
            return exc
        return None

    def finish(self, unit: Unit, result) -> None:
        if result is None:
            outcome = "ok"
            if unit.kind == "write":
                (_verb, name, password), _propagate = unit.payload
                self.written[name] = password
        else:
            outcome = f"fail:{type(result).__name__}"
            self.check_failures.append(f"{unit.kind} {unit.index}: {result!r}")
        self.record(unit, outcome, self.net.clock.now())

    def final_checks(self) -> None:
        client = self.verifier.client
        for name, password in sorted(self.written.items()):
            try:
                client.kdestroy()
                client.kinit(name, password)
            except Exception as exc:  # the check itself reports it
                self.check_failures.append(
                    f"{name} cannot kinit at the master: {exc!r}"
                )
        result = self.realm.propagate()
        if not result.all_ok:
            self.check_failures.append(f"final kprop failed: {result.failures}")
        master = dump_records(self.realm.db.dump())
        for i, slave in enumerate(self.realm.slaves):
            if dump_records(slave.db.dump()) != master:
                self.check_failures.append(
                    f"slave {i + 1} record set differs from the master's"
                )


WORKLOADS = {w.name: w for w in (AthenaLogin, MorningStorm, KadminChurn)}
