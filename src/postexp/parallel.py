"""A table's blocks rendered by forked worker processes, returned in order.

`cli.emit_table` imports this module only for a table of two or more
blocks at --parallelism above 1, so a single-block command never loads it.

Worker i of p processes renders blocks i, i + p, ... and sends each one
down its own pipe as a status byte (0 text, 1 error), the payload length
in HEADER - 1 big-endian bytes, and the payload: the block's UTF-8 text,
or the pickled class and message of the exception its block raised,
after which it sends nothing more. The first process renders blocks 0,
p, 2p, ... itself and reads the others' in turn, decoding each to text,
so the caller sees only text, and the text does not depend on p.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Iterator, NoReturn, Sequence, Tuple

HEADER = 9


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def process_count(parallelism: int, blocks: int, cpus: int) -> int:
    """Processes that render a table of this many blocks: at most one per
    block, per usable CPU and per --parallelism."""
    return max(1, min(parallelism, blocks, cpus))


def rendered(blocks: Sequence[Callable], render: Callable,
             parallelism: int) -> Iterator[str]:
    """Each block's text, in order, rendered here or by a worker.

    process_count() - 1 workers are forked on the first next(); where fork
    fails, this process renders the blocks of the workers it could not
    start. An exception a worker's block raised is raised here with its
    class and message, in that block's turn. When the generator is closed
    early (an error, a closed stdout, an interrupt) every worker is killed;
    on every path every worker is reaped before the generator finishes.
    """
    procs = process_count(parallelism, len(blocks), usable_cpus())
    workers: Dict[int, Tuple[int, object]] = {}   # i -> (pid, pipe reader)
    finished = False
    try:
        for i in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                os.close(r)
                for _, reader in workers.values():
                    reader.close()
                _work(blocks[i::procs], render, w)
            os.close(w)
            workers[i] = (pid, open(r, "rb"))
        for k, block in enumerate(blocks):
            worker = workers.get(k % procs)
            yield render(block()) if worker is None else _receive(worker[1], k)
        finished = True
    finally:
        for pid, reader in workers.values():
            reader.close()
            if not finished:
                import signal

                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _work(blocks: Sequence[Callable], render: Callable, fd: int) -> NoReturn:
    """A forked worker: send each block down fd, as the module docstring says.
    It leaves by os._exit, so it never returns into the caller nor flushes
    the buffers it inherited."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            for block in blocks:
                try:
                    status, data = 0, render(block()).encode()
                except Exception as err:
                    import pickle

                    status, data = 1, pickle.dumps((type(err), str(err)))
                pipe.write(bytes([status]) + len(data).to_bytes(HEADER - 1, "big"))
                pipe.write(data)
                if status:
                    break
        code = 0
    finally:
        os._exit(code)


def _receive(reader, k: int) -> str:
    """Block k's text from a worker's pipe, or the exception it raised."""
    head = reader.read(HEADER)
    size = int.from_bytes(head[1:], "big")
    data = reader.read(size)   # b"" at once after a short head, which is the pipe's end
    if len(head) < HEADER or len(data) < size:
        raise ChildProcessError(f"table block {k} was not received: its worker process ended")
    if head[0] == 0:
        return data.decode()
    import pickle

    cls, message = pickle.loads(data)   # written by this program's worker
    err = cls.__new__(cls)   # an __init__ may take other arguments than the message
    err.args = (message,)
    raise err

