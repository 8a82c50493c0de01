"""Forked helper processes, shared by the JSONL reader and `bench`'s lanes.

A job runs in a forked child and writes its result to a pipe; the parent
reads the pipe. A child that fails, dies or writes short shows the parent a
short read, and the caller then does the child's work itself, so every
result and every error is the one-process one.
"""

import contextlib
import os
import pickle
import signal
import threading


def worker_count(work: int, min_work: int) -> int:
    """How many processes to share work units between: at most one per
    usable CPU, each with at least min_work units."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    # a child forked beside other threads could wait forever on a lock one held
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), work // min_work))


@contextlib.contextmanager
def forked(jobs):
    """Run each job(fd) in a forked child that writes to the pipe fd and
    exits; yield per job the pipe's read end, or None once a fork fails.

    A child exits without unwinding into the parent's stack, flushing
    inherited buffers or printing a traceback, so its failure shows as a
    short write. On leaving, every pipe is closed and every child killed
    and reaped.
    """
    children = []  # (pid, pipe from the child)
    try:
        for job in jobs:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the caller does the rest
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    job(write_fd)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        pipes = [pipe for _, pipe in children]
        yield pipes + [None] * (len(jobs) - len(pipes))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def write_pickle(out, obj) -> None:
    """Write obj to the binary file out as an 8-byte length and its pickle."""
    data = pickle.dumps(obj)
    out.write(len(data).to_bytes(8, "little"))
    out.write(data)


def read_pickle(pipe):
    """What write_pickle wrote to pipe, or None if the writer wrote short.
    Only this program's own children write to these pipes."""
    length = pipe.read(8)
    if len(length) < 8:
        return None
    size = int.from_bytes(length, "little")
    data = pipe.read(size)
    return pickle.loads(data) if len(data) == size else None
