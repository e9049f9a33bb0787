"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py ROLE WORKLOAD SEED OPS TRACE SPANS_PATH

``ROLE`` is ``setup`` (time the set-up only: one sample of ``setup_s``)
or ``run`` (set up, run the ops in blocks with speed calibration between
blocks, then check every answer against the brute engine).  The result
is one JSON object on the last line of standard output.  The program is
imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import resource
import signal
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import inputs  # noqa: E402

#: Ops per calibration block (about 0.1 s at reference speed).
BLOCK_OPS = {"cold-oracle": 50, "warm-planned": 250, "serve-mixed": 50}

#: Task names on the wire for each op kind.
WIRE_TASK = {"lit": "infers_literal", "fml": "infers", "has": "has_model"}

#: The certifier's task label for each op kind.
CERT_TASK = {"lit": "LITERAL", "fml": "FORMULA", "has": "EXISTS_MODEL"}

#: Evaluation threads of the serve daemon (``nproc`` on the 2-vCPU
#: guest the bounds were tuned on).
DAEMON_WORKERS = 2

#: serve-mixed pins its client and the daemon to one CPU.  The closed
#: loop keeps about one CPU busy either way (the client waits while the
#: daemon works), but across two CPUs every request wakes an idle vCPU,
#: and on a busy host that wake-up waits for the hypervisor: in one set
#: of runs throughput fell by up to 45% while the calibration kernel
#: slowed by 8%.  On one CPU the hand-over is a plain context switch
#: (a pipe round trip took 7.6 us against 21 us across CPUs) and the
#: kernel runs on the CPU that does the work.
SERVE_CPUS = 1

#: (semantics, op kind) cells whose certificate violations come from a
#: known program defect.  They stay in the mix; their violations are
#: reported as ``obs.known_defect_violations``, not as failures.
#: ``circ`` model existence runs the generic ``has_model``, which
#: enumerates models (about 100 NP calls at 8 atoms where Table 2 claims
#: O(1)).
KNOWN_DEFECT_CELLS = frozenset({("circ", "has")})

#: Prometheus name of the certifier's per-cell violation counter.
VIOLATIONS_METRIC = "repro_certificate_violations_total"


def import_repro():
    """Import the program from this checkout's ``src/``; anything else
    (an installed copy, a missing tree) is an error."""
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, "
                         f"not from {SRC}")
    return repro


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
class GroundTruth:
    """Answers of the brute engine, one model set per (database,
    semantics), computed after the timed region."""

    def __init__(self, dbs):
        from repro.logic.parser import parse_database, parse_formula
        from repro.semantics import get_semantics

        self._dbs = dbs
        self._parse_db = parse_database
        self._parse_formula = parse_formula
        self._get = get_semantics
        self._models: Dict[Any, list] = {}
        self._has_model: Dict[Any, bool] = {}

    def models(self, index: int, sem: str) -> list:
        key = (index, sem)
        if key not in self._models:
            db = self._parse_db(self._dbs[index].text)
            self._models[key] = list(
                self._get(sem, engine="brute").model_set(db))
        return self._models[key]

    def has_model(self, index: int, sem: str) -> bool:
        key = (index, sem)
        if key not in self._has_model:
            db = self._parse_db(self._dbs[index].text)
            self._has_model[key] = self._get(
                sem, engine="brute").has_model(db)
        return self._has_model[key]

    def check(self, op, verdict, counter_model: Optional[str]) -> str:
        """``"ok"`` when ``verdict`` (and the counter-model, when one was
        given) is what the brute engine says, else ``"wrong"``.  Model
        existence is also compared with the brute model set: an answer
        that agrees with the brute engine's ``has_model`` but not with
        its model set is ``"mismatch"`` (a defect the two engines share,
        reported as ``obs.has_model_mismatches``)."""
        kind, index, sem, query = op
        models = self.models(index, sem)
        if kind == "has":
            if verdict != self.has_model(index, sem):
                return "wrong"
            return "ok" if verdict == bool(models) else "mismatch"
        if kind == "lit":
            negative = query.startswith("~")
            atom = query[1:] if negative else query
            right = verdict == all((atom in m) != negative for m in models)
            return "ok" if right else "wrong"
        formula = self._parse_formula(query)
        if verdict != all(m.satisfies(formula) for m in models):
            return "wrong"
        if counter_model is None:
            return "ok"
        return "ok" if counter_model in {
            str(m) for m in models if not m.satisfies(formula)} else "wrong"


def violations_by_label(exposition: str) -> Dict[Tuple[str, str], float]:
    """The certifier's violation counts per (semantics, task) label, read
    from the program's Prometheus exposition.  The certifier names a
    semantics by its table row, so ``circ`` is counted as ``ecwa``."""
    labels: Dict[Tuple[str, str], float] = {}
    for line in exposition.splitlines():
        if line.startswith(VIOLATIONS_METRIC + "{"):
            text, value = line[len(VIOLATIONS_METRIC):].rsplit(" ", 1)
            found = dict(re.findall(r'(\w+)="([^"]*)"', text))
            labels[(found["semantics"], found["task"])] = float(value)
    return labels


def label_deltas(before: str, after: str) -> Dict[Tuple[str, str], int]:
    start = violations_by_label(before)
    return {label: int(round(count - start.get(label, 0.0)))
            for label, count in violations_by_label(after).items()
            if count > start.get(label, 0.0)}


def check_answers(dbs, op_list, answers) -> Dict[str, Any]:
    """Every answer against the brute engine (outside the timed region).
    ``answers[i]`` is ``(verdict, counter-model or None)``, an exception
    (the op failed) or ``None`` for a write."""
    truth = GroundTruth(dbs)
    wrong = mismatches = errors = 0
    messages: List[str] = []
    for op, answer in zip(op_list, answers):
        if isinstance(answer, Exception):
            errors += 1
            if len(messages) < 20:
                messages.append(f"{op}: {answer!r}")
            continue
        if op[0] == "write":
            continue
        status = truth.check(op, *answer)
        if status == "mismatch":
            mismatches += 1
        elif status == "wrong":
            wrong += 1
            if len(messages) < 20:
                messages.append(f"{op}: wrong answer {answer!r}")
    return {"wrong": wrong, "mismatches": mismatches, "errors": errors,
            "messages": messages}


def split_violations(cells: Dict[Tuple[str, str], int]) -> Dict[str, int]:
    """Violations per (semantics, op kind) cell, split into real ones
    (failures) and those on :data:`KNOWN_DEFECT_CELLS`."""
    known = sum(count for cell, count in cells.items()
                if cell in KNOWN_DEFECT_CELLS)
    return {"real": sum(cells.values()) - known, "known_defect": known,
            "concurrent": 0}


# ----------------------------------------------------------------------
# In-process workloads (session API)
# ----------------------------------------------------------------------
def compact(answer):
    """What the brute check needs from an answer: ``(verdict,
    counter-model text or None)``; exceptions and writes pass through.
    Keeping whole ``Answer`` objects would add the benchmark's own
    memory to the program's peak RSS."""
    if answer is None or isinstance(answer, (bool, Exception)):
        return answer
    certificate = answer.certificate
    return (answer.verdict,
            str(certificate.model) if certificate is not None else None)


def first_touches(op_list) -> int:
    """Reads whose (database, semantics, query) was not asked before."""
    seen = set()
    count = 0
    for op in op_list:
        if op[0] != "write" and op not in seen:
            seen.add(op)
            count += 1
    return count


def workload_inputs(workload: str, seed: int, ops: int):
    if workload == "cold-oracle":
        dbs, op_list = inputs.cold_oracle(seed, ops)
        return dbs, op_list, 0, "oracle"
    if workload == "warm-planned":
        dbs, op_list, preload = inputs.warm_planned(seed, ops)
        return dbs, op_list, preload, "planned"
    dbs, op_list, preload = inputs.serve_mixed(seed, ops)
    return dbs, op_list, preload, "cached"


def inprocess(role: str, workload: str, seed: int, ops: int, trace: bool,
              spans_path: str) -> Dict[str, Any]:
    dbs, op_list, preload, engine = workload_inputs(workload, seed, ops)
    before = calib.calibrate()
    start = time.perf_counter()
    # --- set-up: the first call into the program --------------------
    repro = import_repro()
    from repro.session import DatabaseSession

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    sessions: Dict[int, Any] = {}
    all_sessions: List[Any] = []
    setup_writes: List[float] = []
    for index in range(preload):
        t = time.perf_counter()
        session = DatabaseSession(repro.parse_database(dbs[index].text),
                                  engine=engine)
        setup_writes.append(time.perf_counter() - t)
        sessions[index] = session
        all_sessions.append(session)
    setup_raw = time.perf_counter() - start
    setup_factor = calib.REF_S / ((before + calib.calibrate()) / 2.0)
    result: Dict[str, Any] = {
        "setup_raw_s": setup_raw, "setup_factor": setup_factor,
        # Registrations made during set-up, at reference speed: the
        # write latency of a workload whose ops make no writes.
        "setup_write_latency_s": [w * setup_factor for w in setup_writes],
    }
    if role == "setup":
        return result

    from repro.engine.cache import cache_stats
    from repro.obs.accounting import totals
    from repro.sat.incremental import solver_pool_stats

    n = len(op_list)
    latency = [0.0] * n
    starts = [0.0] * n
    factor_of = [0.0] * n
    answers: List[Any] = [None] * n
    violated = [0] * n
    block = BLOCK_OPS[workload]
    op_var = spans.OP if trace else None
    oracle_before = totals()
    speed = calib.SpeedLog()
    walls = []
    clock = time.perf_counter
    for first in range(0, n, block):
        block_start = clock()
        for i in range(first, min(n, first + block)):
            kind, index, sem, query = op_list[i]
            if op_var is not None:
                op_var.set(i)
            session = sessions.get(index)
            seen = session.certificate_violations if session else 0
            t = starts[i] = clock()
            try:
                if kind == "write":
                    session = DatabaseSession(
                        repro.parse_database(dbs[index].text),
                        engine=engine)
                    sessions[index] = session
                    all_sessions.append(session)
                    answer = None
                elif kind == "lit":
                    answer = sessions[index].ask_literal(query, sem)
                elif kind == "fml":
                    answer = sessions[index].ask(query, sem)
                else:
                    answer = sessions[index].has_model(sem)
            except Exception as exc:  # counted as a failed op
                answer = exc
            latency[i] = clock() - t
            answers[i] = compact(answer)
            if kind != "write" and session is not None:
                violated[i] = session.certificate_violations - seen
        walls.append(clock() - block_start)
        speed.close_block(starts, latency, factor_of, first,
                          min(n, first + block))
    rss = peak_rss_mb()
    oracle_after = totals()
    cells = op_cells(op_list, violated)
    reads = sum(1 for op in op_list if op[0] != "write")

    # --- counters read from the program's public stats -------------
    cache = cache_stats()
    pool = solver_pool_stats()
    procedures: Dict[str, int] = {}
    for session in all_sessions:
        for name, count in session.plan_procedure_counts.items():
            procedures[name] = procedures.get(name, 0) + count
    result.update({
        "ops": n, "reads": reads, "latency_s": latency,
        "factor_of": factor_of, "block_walls": walls,
        "block_factors": speed.factors, "peak_rss_mb": rss,
        "np_calls": oracle_after.np_calls - oracle_before.np_calls,
        "sigma2": (oracle_after.sigma2_dispatches
                   - oracle_before.sigma2_dispatches),
        "nodes": oracle_after.nodes - oracle_before.nodes,
        "cache": {k: cache[k] for k in ("hits", "misses", "evictions",
                                        "hit_rate")},
        "pool_reuse_rate": pool["reuse_rate"],
        "procedures": procedures,
        "kinds": [op[0] for op in op_list],
        "first_touches": first_touches(op_list),
    })
    if recorder is not None:
        wall = sum(walls)
        result["trace"] = recorder.summarize(sum(latency))
        result["trace"]["wall_s"] = wall
        recorder.write_jsonl(spans_path)

    # --- answers against the brute engine (outside the timed region) -
    checked = check_answers(dbs, op_list, [
        (a, None) if op[0] == "has" and isinstance(a, bool) else a
        for op, a in zip(op_list, answers)])
    finish(result, checked, cells, split_violations(cells))
    return result


def op_cells(op_list, violated) -> Dict[Tuple[str, str], int]:
    """Certificate violations per (semantics, op kind) cell, from each
    op's violation count."""
    cells: Dict[Tuple[str, str], int] = {}
    for (kind, _, sem, _), count in zip(op_list, violated):
        if count:
            cells[(sem, kind)] = cells.get((sem, kind), 0) + count
    return cells


def cell_names(cells: Dict[Tuple[str, str], int]) -> Dict[str, int]:
    return {f"{sem}/{task}": count for (sem, task), count in cells.items()}


def finish(result: Dict[str, Any], checked: Dict[str, Any],
           cells: Dict[Tuple[str, str], int], split: Dict[str, int]
           ) -> None:
    """Record the check's outcome: failures are errors, wrong answers and
    real certificate violations."""
    messages = checked["messages"]
    if split["real"]:
        messages.append(f"{split['real']} certificate violation(s); by "
                        f"cell: {cell_names(cells)}")
    result.update({
        "failed": checked["errors"] + checked["wrong"] + split["real"],
        "wrong": checked["wrong"],
        "violations": sum(cells.values()),
        "violations_by_cell": cell_names(cells),
        "known_defect_violations": split["known_defect"],
        "concurrent_violations": split["concurrent"],
        "has_model_mismatches": checked["mismatches"],
        "errors": messages[:20],
    })


# ----------------------------------------------------------------------
# serve-mixed: the daemon in a child process, 2 keep-alive connections
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection; one request at a time."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, method: str, path: str,
                      payload: Optional[dict] = None):
        body = json.dumps(payload).encode() if payload is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length) if length else b""
        return status, data

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class Daemon:
    """The serve daemon, launched by ``daemon.py`` in a child process."""

    def __init__(self, trace: bool, spans_path: str):
        self.trace = trace
        self.spans_path = spans_path
        self.proc = None
        self.port = 0

    async def start(self) -> None:
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        with open(os.path.join(ROOT, ".perfbench", "daemon.log"),
                  "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, os.path.join(HERE, "daemon.py"),
                str(DAEMON_WORKERS), "1" if self.trace else "0",
                self.spans_path,
                stdout=asyncio.subprocess.PIPE, stderr=log)
        line = await asyncio.wait_for(self.proc.stdout.readline(), 60)
        text = line.decode()
        if "listening on http://" not in text:
            raise RuntimeError(f"daemon did not start: {text!r}")
        self.port = int(text.split("listening on http://")[1]
                        .split(" ")[0].rsplit(":", 1)[1])

    async def kill(self) -> None:
        """Make sure the daemon is gone (error paths)."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()

    async def stop(self) -> Dict[str, Any]:
        """SIGINT, then wait; returns the launcher's exit summary."""
        summary: Dict[str, Any] = {}
        self.proc.send_signal(signal.SIGINT)
        try:
            out, _ = await asyncio.wait_for(self.proc.communicate(), 60)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
            raise RuntimeError("daemon did not stop")
        for line in out.decode().splitlines():
            if line.startswith("PERFBENCH "):
                summary = json.loads(line[len("PERFBENCH "):])
        return summary


def _metric_value(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


async def serve_mixed(role: str, seed: int, ops: int, trace: bool,
                      spans_path: str) -> Dict[str, Any]:
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:SERVE_CPUS])
    daemons: List[Daemon] = []
    try:
        return await _serve_mixed(role, seed, ops, trace, spans_path,
                                  daemons)
    finally:
        for daemon in daemons:
            await daemon.kill()


async def _serve_mixed(role: str, seed: int, ops: int, trace: bool,
                       spans_path: str, daemons: List["Daemon"]
                       ) -> Dict[str, Any]:
    dbs, op_list, preload, _ = workload_inputs("serve-mixed", seed, ops)
    before = calib.calibrate()
    start = time.perf_counter()
    # --- set-up: daemon start, connections, preload ------------------
    daemon = Daemon(trace, spans_path)
    daemons.append(daemon)
    await daemon.start()
    conns = [await Connection.open(daemon.port) for _ in range(2)]
    ids: Dict[int, str] = {}
    for index in range(preload):
        status, data = await conns[0].request(
            "POST", "/v1/databases", {"text": dbs[index].text})
        if status != 200:
            raise RuntimeError(f"preload failed: {status} {data!r}")
        ids[index] = json.loads(data)["db"]
    setup_raw = time.perf_counter() - start
    setup_factor = calib.REF_S / ((before + calib.calibrate()) / 2.0)
    result: Dict[str, Any] = {
        "setup_raw_s": setup_raw, "setup_factor": setup_factor,
    }
    if role == "setup":
        for conn in conns:
            await conn.close()
        await daemon.stop()
        return result

    n = len(op_list)
    latency = [0.0] * n
    starts = [0.0] * n
    factor_of = [0.0] * n
    replies: List[Any] = [None] * n
    acked = {index: asyncio.Event() for index in range(len(dbs))}
    for index in range(preload):
        acked[index].set()
    ack_waits = 0
    _, metrics_before = await conns[0].request("GET", "/metrics")
    block = BLOCK_OPS["serve-mixed"]
    speed = calib.SpeedLog()
    walls = []
    clock = time.perf_counter
    cursor = 0
    limit = 0

    async def drive(conn: Connection) -> None:
        nonlocal cursor, ack_waits
        while cursor < limit:
            i = cursor
            cursor += 1
            kind, index, sem, query = op_list[i]
            if kind == "write":
                path, payload = "/v1/databases", {"text": dbs[index].text}
            else:
                if not acked[index].is_set():
                    ack_waits += 1
                    await acked[index].wait()
                path = "/v1/query"
                payload = {"db": ids[index], "task": WIRE_TASK[kind],
                           "semantics": sem, "op": i}
                if query:
                    payload["query"] = query
            t = starts[i] = clock()
            status, data = await conn.request("POST", path, payload)
            latency[i] = clock() - t
            reply = json.loads(data) if data else {}
            replies[i] = (status, reply)
            if kind == "write" and status == 200:
                ids[index] = reply["db"]
                acked[index].set()

    for first in range(0, n, block):
        limit = min(n, first + block)
        block_start = clock()
        await asyncio.gather(*(drive(conn) for conn in conns))
        walls.append(clock() - block_start)
        speed.close_block(starts, latency, factor_of, first, limit)
    _, metrics_after = await conns[0].request("GET", "/metrics")
    _, stats_data = await conns[0].request("GET", "/v1/stats")
    stats = json.loads(stats_data)
    for conn in conns:
        await conn.close()
    summary = await daemon.stop()

    def delta(name: str) -> float:
        return (_metric_value(metrics_after.decode(), name)
                - _metric_value(metrics_before.decode(), name))

    reads = sum(1 for op in op_list if op[0] != "write")
    labels = label_deltas(metrics_before.decode(), metrics_after.decode())
    result.update({
        "ops": n, "reads": reads, "latency_s": latency,
        "factor_of": factor_of, "block_walls": walls,
        "block_factors": speed.factors,
        "peak_rss_mb": summary.get("peak_rss_kb", 0) / 1024.0,
        "np_calls": delta("repro_oracle_np_calls_total"),
        "sigma2": delta("repro_oracle_sigma2_dispatches_total"),
        "nodes": delta("repro_search_nodes_total"),
        "cache": stats["cache"],
        "pool_reuse_rate": stats["solver_pool"]["reuse_rate"],
        "batch_width_mean": stats["mean_batch_width"],
        "admitted": stats["admitted"], "rejected": stats["rejected"],
        "ack_waits": ack_waits,
        "kinds": [op[0] for op in op_list],
        "first_touches": first_touches(op_list),
    })
    if trace:
        result["trace"] = summary.get("trace", {})
        result["trace"]["wall_s"] = sum(walls)
        result["trace"]["unattributed_share"] = (
            1.0 - result["trace"].get("attributed_s", 0.0) / sum(latency))

    # --- answers against the brute engine (outside the timed region) -
    import_repro()
    answers: List[Any] = []
    for op, (status, reply) in zip(op_list, replies):
        if status != 200:
            answers.append(RuntimeError(f"HTTP {status} {reply}"))
        elif op[0] == "write":
            answers.append(None)
        else:
            answers.append((reply.get("verdict"),
                            reply.get("counter_model")))
    checked = check_answers(dbs, op_list, answers)
    finish(result, checked, labels,
           split_daemon_violations(labels, replay(dbs, op_list, labels)))
    return result


def replay(dbs, op_list, labels: Dict[Tuple[str, str], int]
           ) -> Dict[Tuple[str, str], int]:
    """Certificate violations per (semantics, op kind) cell when the
    reads under the violated certifier ``labels`` are re-run in op order
    on one thread, on the daemon's engine, as the daemon evaluates
    them."""
    if not labels:
        return {}
    from repro.logic.parser import parse_database
    from repro.obs.certify import canonical_name
    from repro.session import DatabaseSession

    sessions: Dict[int, Any] = {}
    violated = [0] * len(op_list)
    for i, (kind, index, sem, query) in enumerate(op_list):
        if (kind == "write"
                or (canonical_name(sem), CERT_TASK[kind]) not in labels):
            continue
        session = sessions.get(index)
        if session is None:
            session = sessions[index] = DatabaseSession(
                parse_database(dbs[index].text), engine="cached")
        seen = session.certificate_violations
        if kind == "lit":
            session.ask_literal(query, sem)
        elif kind == "fml":
            session.ask(query, semantics=sem)
        else:
            session.has_model(sem)
        violated[i] = session.certificate_violations - seen
    return op_cells(op_list, violated)


def split_daemon_violations(labels: Dict[Tuple[str, str], int],
                            replayed: Dict[Tuple[str, str], int]
                            ) -> Dict[str, int]:
    """Split the daemon's violations per certifier label using the
    single-thread replay: first against the replay's violations on
    :data:`KNOWN_DEFECT_CELLS`, then against its other violations (real
    ones, failures); the rest did not recur on one thread and is counted
    as ``concurrent`` (the accounting windows count process-wide oracle
    calls, so a query evaluated beside another thread can be charged
    that thread's calls)."""
    from repro.obs.certify import canonical_name

    split = {"real": 0, "known_defect": 0, "concurrent": 0}
    for label, count in labels.items():
        known = other = 0
        for (sem, kind), n in replayed.items():
            if (canonical_name(sem), CERT_TASK[kind]) == label:
                if (sem, kind) in KNOWN_DEFECT_CELLS:
                    known += n
                else:
                    other += n
        known = min(count, known)
        real = min(count - known, other)
        split["known_defect"] += known
        split["real"] += real
        split["concurrent"] += count - known - real
    return split


def main(argv: List[str]) -> int:
    role, workload, seed, ops, trace, spans_path = argv
    seed, ops, trace = int(seed), int(ops), trace == "1"
    if workload == "serve-mixed":
        result = asyncio.run(serve_mixed(role, seed, ops, trace,
                                         spans_path))
    else:
        result = inprocess(role, workload, seed, ops, trace, spans_path)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
