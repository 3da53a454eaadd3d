"""A table's blocks rendered by forked worker processes, returned in order.

`cli.emit_table` imports this module only for a table of two or more
blocks at --parallelism above 1, so a single-block command never loads it.

Worker i of p processes renders blocks i, i + p, ... and sends each down
its own pipe as a HEADER-byte big-endian length and the UTF-8 text,
stopping at the first block it cannot render. The first process renders
blocks 0, p, 2p, ... and every block that does not arrive whole: each is
a pure function of the command line, so the text does not depend on p,
and a block that raises, raises here in its turn.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Iterator, NoReturn, Optional, Sequence, Tuple

HEADER = 8


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

    process_count() - 1 workers are forked on the first next(). A block
    that does not arrive whole from its worker (fork failed, the block
    raised there, or the worker ended) is rendered here. When the generator
    is closed early (an error, a closed stdout, an interrupt) every worker
    is killed; on every path every worker is reaped before it finishes.
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
            text = None if worker is None else _receive(worker[1])
            yield render(block()) if text is None else text
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
    It leaves by os._exit, so it never returns into the caller, prints no
    traceback, nor flushes the buffers it inherited."""
    try:
        with open(fd, "wb") as pipe:
            for block in blocks:
                data = render(block()).encode()
                pipe.write(len(data).to_bytes(HEADER, "big") + data)
    finally:
        os._exit(0)


def _receive(reader) -> Optional[str]:
    """The next block's text from a worker's pipe, or None where the worker
    ended before sending all of it."""
    head = reader.read(HEADER)
    if len(head) < HEADER:
        return None
    size = int.from_bytes(head, "big")
    data = reader.read(size)
    return data.decode() if len(data) == size else None
