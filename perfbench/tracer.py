"""The benchmark's own span recorder: wraps coarse layer entry points.

Only the traced run uses this module.  Each wrapper records one span
(name, start, end, parent) into flat in-memory lists; nothing is written
until the run ends.  A layer's *self time* is the sum, over its spans, of
the span's duration minus the part of it that child spans cover.  The
root of every timed operation is an ``op`` span owned by the benchmark:
its self time is the wall time no wrapped entry point claimed (benchmark
code and program code between entry points), reported as
``trace.unattributed_share``.

Entry points are patched where they are looked up: a module-level
function is replaced in every loaded ``repro`` module that bound it by
name, a method on its class, a port handler on its host via
``Host.rebind``, and a queue's batch callback on the queue instance.
Per-block DES kernels are never wrapped; the wide kernel gets a
counting-only hook (no span) so its block share can be reported.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer that owns the benchmark's per-operation root spans.
ROOT_LAYER = "unattributed"


class Recorder:
    """Flat span store plus named counters, switched on only while an
    operation is being timed."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[str] = []
        self.name_layer: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.stack: List[int] = [-1]
        self.counts: Dict[str, float] = defaultdict(float)
        #: Exact simulated queue waits of the batches served while on.
        self.waits: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def wrap(
        self,
        name: str,
        layer: str,
        fn: Callable,
        count: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn`` while the
        recorder is on.  ``count(recorder, outermost, args, result)``
        runs inside the span; ``outermost`` is True when no enclosing
        span belongs to the same layer."""
        nid = self.name_id(name, layer)
        rec = self
        clock = time.perf_counter_ns
        span_name = self.span_name
        starts = self.starts
        ends = self.ends
        parents = self.parents
        stack = self.stack
        name_layer = self.name_layer

        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            parent = stack[-1]
            span_name.append(nid)
            parents.append(parent)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    outermost = True
                    p = parent
                    while p >= 0:
                        if name_layer[span_name[p]] == layer:
                            outermost = False
                            break
                        p = parents[p]
                    count(rec, outermost, args, result)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def add(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    # -- patching ------------------------------------------------------------

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, target.__dict__.get(attr)))
        setattr(target, attr, value)

    def patch_function(
        self,
        module,
        attr: str,
        layer: str,
        count: Optional[Callable] = None,
        where: Optional[Sequence[str]] = None,
    ) -> None:
        """Wrap ``module.attr`` in ``module`` and in every loaded module
        that imported it by name (restricted to ``where`` if given)."""
        original = getattr(module, attr)
        wrapper = self.wrap(f"{module.__name__}.{attr}", layer, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if where is not None and mod_name not in where:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def patch_method(
        self, cls, attr: str, layer: str, count: Optional[Callable] = None
    ) -> None:
        raw = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if isinstance(raw, classmethod):
            value = classmethod(self.wrap(name, layer, raw.__func__, count))
        elif isinstance(raw, staticmethod):
            value = staticmethod(self.wrap(name, layer, raw.__func__, count))
        else:
            value = self.wrap(name, layer, raw, count)
        self._set(cls, attr, value)

    def patch_attribute(self, obj, attr: str, name: str, layer: str) -> None:
        """Wrap a callable stored on one instance (a queue's callback)."""
        self._set(obj, attr, self.wrap(name, layer, getattr(obj, attr)))

    def patch_handler(self, host, port: int, layer: str) -> None:
        handler = host.handler_for(port)
        if handler is None:
            return
        wrapped = self.wrap(f"port{port}.handler", layer, handler)
        host.rebind(port, wrapped)
        self._undo.append((host, ("port", port), handler))

    def unpatch(self) -> None:
        """Restore every patched attribute and handler (newest first)."""
        while self._undo:
            target, attr, previous = self._undo.pop()
            if isinstance(attr, tuple):
                target.rebind(attr[1], previous)
            elif previous is None:
                delattr(target, attr)
            else:
                setattr(target, attr, previous)

    # -- results ---------------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        times = self_times(self.starts, self.ends, self.parents)
        for nid, value in zip(self.span_name, times):
            out[self.name_layer[nid]] += value
        return dict(out)

    def call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for nid in self.span_name:
            out[self.names[nid]] += 1
        return dict(out)

    def layer_call_counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for nid in self.span_name:
            out[self.name_layer[nid]] += 1
        return dict(out)

    def root_wall_ns(self) -> int:
        return sum(
            self.ends[i] - self.starts[i]
            for i, p in enumerate(self.parents)
            if p < 0
        )

    def write(self, path: str) -> None:
        """Dump every span (columnar, gzip JSON) for offline analysis."""
        payload = {
            "names": self.names,
            "layers": self.name_layer,
            "span_name": self.span_name,
            "start_ns": self.starts,
            "end_ns": self.ends,
            "parent": self.parents,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(
    starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]
) -> List[int]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not counted
    twice."""
    children: Dict[int, List[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    result = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo_bound, hi_bound = starts[parent], ends[parent]
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((starts[k], ends[k]) for k in kids):
            lo, hi = max(lo, lo_bound), min(hi, hi_bound)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[parent] -= covered
    return result


# --------------------------------------------------------------------------
# Counting hooks (run inside the span they count).
# --------------------------------------------------------------------------


def _blocks_of_result(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", len(result) // 8)


def _blocks_of_input(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", len(args[1]) // 8)


def _blocks_of_results(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", sum(len(r) for r in result) // 8)


def _blocks_of_inputs(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", sum(len(item[1]) for item in args[0]) // 8)


def _blocks_resumed(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", (len(result) - len(args[1][0])) // 8)


def _blocks_resumed_many(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", sum(
            len(out) - len(item[1][0]) for item, out in zip(args[0], result)
        ) // 8)


def _blocks_prefix(rec, outermost, args, result):
    if outermost:
        rec.add("crypto.blocks", len(result[0]) // 8)


def _s2k(rec, outermost, args, result):
    rec.add("crypto.s2k_calls")


def _encoded_bytes(rec, outermost, args, result):
    if outermost:
        rec.add("encode.bytes", len(result))


def _encoded_frames(rec, outermost, args, result):
    if outermost:
        rec.add("encode.bytes", sum(len(r) for r in result))


def _db_lookup(rec, outermost, args, result):
    rec.add("database.lookups")


def _db_write(rec, outermost, args, result):
    rec.add("database.writes")


def _unseal(rec, outermost, args, result):
    rec.add("database.unseals")


def _rpc(rec, outermost, args, result):
    rec.add("netsim.rpcs")


def _instrument(rec, outermost, args, result):
    rec.add("obs.instrument_calls")


def _span(rec, outermost, args, result):
    rec.add("obs.spans")


def instrument(rec: Recorder, net) -> None:
    """Wrap the layer entry points of every component on ``net``."""
    from repro.apps import kerberized
    from repro.core import applib, client, kdc, messages
    from repro.crypto import checksum, des, des_simd, modes, string2key
    from repro.database import db, masterkey
    from repro.encode import batch, structfmt
    from repro.kdbm import client as kdbm_client
    from repro.netsim import network, ports
    from repro.obs import audit, metrics, tracing
    from repro import principal
    from repro.replication import kprop
    from repro.runtime import scheduler, workqueue

    # crypto: message-level cipher entry points (never per-block DES).
    for attr, count in (
        ("seal", _blocks_of_result),
        ("unseal", _blocks_of_input),
        ("seal_many", _blocks_of_results),
        ("unseal_many", _blocks_of_inputs),
        ("seal_prefix_state", _blocks_prefix),
        ("seal_resume", _blocks_resumed),
        ("seal_resume_many", _blocks_resumed_many),
        ("pcbc_encrypt", _blocks_of_result),
        ("pcbc_decrypt", _blocks_of_input),
        ("pcbc_encrypt_many", _blocks_of_results),
        ("pcbc_decrypt_many", _blocks_of_inputs),
        ("cbc_encrypt", _blocks_of_result),
        ("cbc_decrypt", _blocks_of_input),
        ("ecb_encrypt", _blocks_of_result),
        ("ecb_decrypt", _blocks_of_input),
    ):
        rec.patch_function(modes, attr, "crypto", count)
    rec.patch_function(string2key, "string_to_key", "crypto", _s2k)
    for attr, count in (
        ("cbc_mac", _blocks_of_input),
        ("verify_cbc_mac", _blocks_of_input),
        ("quad_cksum", None),
    ):
        rec.patch_function(checksum, attr, "crypto", count)
    rec.patch_method(des.DesKey, "from_bytes", "crypto")
    rec.patch_method(des.DesKey, "__init__", "crypto")
    wide = des_simd.crypt_wide

    def crypt_wide(plain, km):
        if rec.on:
            rec.add("crypto.wide_blocks", len(plain))
        return wide(plain, km)

    rec._set(des_simd, "crypt_wide", crypt_wide)

    # encode (+ repro.principal): the wire codec.
    for attr in ("encode_message", "decode_message", "expect_reply"):
        rec.patch_function(
            messages, attr, "encode",
            _encoded_bytes if attr == "encode_message" else None,
        )
    rec.patch_method(structfmt.WireStruct, "to_bytes", "encode", _encoded_bytes)
    rec.patch_method(structfmt.WireStruct, "from_bytes", "encode")
    rec.patch_method(batch.BatchWriter, "add", "encode")
    rec.patch_method(batch.BatchWriter, "finish", "encode", _encoded_frames)
    rec.patch_method(batch.BatchReader, "frames", "encode")
    for attr in ("__str__", "db_key", "same_entity", "parse"):
        rec.patch_method(principal.Principal, attr, "encode")

    # database: record reads, key unseals, writes, dump/apply.
    rec.patch_method(db.KerberosDatabase, "get_record", "database", _db_lookup)
    rec.patch_method(db.KerberosDatabase, "principal_key", "database")
    for attr in (
        "add_principal", "change_key", "set_attributes", "set_max_life",
        "delete_principal", "import_record", "remove_record",
    ):
        rec.patch_method(db.KerberosDatabase, attr, "database", _db_write)
    for attr in ("dump", "load_dump", "apply_entries"):
        rec.patch_method(db.KerberosDatabase, attr, "database")
    rec.patch_method(masterkey.MasterKey, "unseal_key", "database", _unseal)
    rec.patch_method(masterkey.MasterKey, "seal_key", "database")

    # netsim: request posting, synchronous pumping, leg arrivals.
    rec.patch_method(network.Network, "rpc", "netsim")
    rec.patch_method(network.Network, "rpc_async", "netsim", _rpc)
    rec.patch_method(network.Network, "send", "netsim")
    rec.patch_method(network.Network, "_arrive", "netsim")
    rec.patch_method(network.Network, "_arrive_reply", "netsim")

    # runtime: the event loop and queue admission.
    rec.patch_method(scheduler.EventScheduler, "step", "runtime")
    rec.patch_method(scheduler.EventScheduler, "run_until_idle", "runtime")
    rec.patch_method(workqueue.WorkQueue, "submit", "runtime")

    # client side: Kerberos client library, applib, Kerberized apps.
    for attr in ("kinit", "as_exchange", "get_credential", "mk_req",
                 "rd_rep", "kdestroy"):
        rec.patch_method(client.KerberosClient, attr, "client")
    for attr in ("__init__", "call", "close"):
        rec.patch_method(kerberized.KerberizedChannel, attr, "client")
    for attr in ("krb_mk_req", "krb_rd_req", "krb_mk_rep", "krb_rd_rep"):
        rec.patch_function(
            applib, attr, "client",
            where=("repro.core.client", "repro.apps.kerberized"),
        )

    # kdbm and replication: client ops; Kprop rounds.
    for attr in ("change_password", "admin_change_password",
                 "add_principal", "get_entry"):
        rec.patch_method(kdbm_client.KdbmClient, attr, "kdbm")
    rec.patch_method(kprop.Kprop, "propagate", "replication")

    # obs: registry accessors, tracer spans, the audit log.
    for attr in ("counter", "gauge", "histogram", "total", "get"):
        rec.patch_method(metrics.MetricsRegistry, attr, "obs", _instrument)
    rec.patch_method(metrics.Histogram, "observe", "obs")
    for attr in ("start_span", "open_span"):
        rec.patch_method(tracing.Tracer, attr, "obs", _span)
    for attr in ("end_span", "close_span", "propagation_context"):
        rec.patch_method(tracing.Tracer, attr, "obs")
    rec.patch_method(audit.AuditLog, "emit", "obs")

    # Port handlers, patched on their hosts; the KDC's batch completion
    # callback on its queue; the storm's exact queue waits.
    port_layers = {
        ports.KERBEROS_PORT: "core.kdc",
        ports.KDBM_PORT: "kdbm",
        ports.KPROP_PORT: "replication",
    }
    for host in net.hosts():
        for service in list(host.services):
            if isinstance(service, kdc.KerberosServer):
                if service.workqueue is not None:
                    _patch_queue(rec, service.workqueue)
            elif isinstance(service, kerberized.KerberizedServer):
                port_layers.setdefault(service.port, "client")
        for port, layer in port_layers.items():
            rec.patch_handler(host, port, layer)
    rec.patch_method(kdc.KerberosServer, "process_request_buffer", "core.kdc")


def _patch_queue(rec: Recorder, queue) -> None:
    rec.patch_attribute(queue, "_process", "WorkQueue._process", "core.kdc")
    observe = queue._observe_waits

    def observe_waits(batch, dispatched_at):
        if rec.on:
            rec.add("runtime.batches")
            rec.add("runtime.batch_items", len(batch))
            rec.waits.extend(dispatched_at - e.enqueued_at for e in batch)
        return observe(batch, dispatched_at)

    rec._set(queue, "_observe_waits", observe_waits)
