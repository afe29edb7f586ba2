"""Run a callable in a forked child, one child at a time, under a time limit.

The process that forks has imported kprime but never called into it, so
every child starts with the module state of a fresh `kpi` process: no
memo left over from an earlier job, pass or run. The child sends its JSON
result back through a pipe; the forking process reads it while waiting,
so large outputs cannot block the child, and kills the child when the
limit passes.

A forked child starts with the resident pages of the process it was
forked from, and its peak RSS counts them. Jobs whose RSS is measured are
therefore forked by a Forker, a child forked while its parent held
nothing but imported modules, and not by the parent, which goes on to
hold job lists and the rows of every pass.
"""

import json
import os
import select
import signal
import sys
import time
import traceback


class ChildResult:
    """What one forked child produced.

    status is "ok", "timeout" or "crash"; value is the decoded result of
    the callable when status is "ok"; maxrss_mb is the child's peak
    resident set size.
    """

    __slots__ = ("status", "value", "maxrss_mb")

    def __init__(self, status, value, maxrss_mb):
        self.status = status
        self.value = value
        self.maxrss_mb = maxrss_mb


def run_forked(func, limit_s, decode=True):
    """Call func() in a forked child and return a ChildResult.

    With decode=False the value is the child's JSON text, undecoded.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            data = json.dumps(func()).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(write_fd, view):]
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + limit_s
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    maxrss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        return ChildResult("timeout", None, maxrss_mb)
    if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0):
        return ChildResult("crash", None, maxrss_mb)
    data = b"".join(chunks)
    return ChildResult("ok", json.loads(data) if decode else data, maxrss_mb)


class Forker:
    """A child that runs func(*args) in a forked child of its own for each
    request, one at a time, and reports the ChildResult.

    Make it before the parent keeps any state: the children it forks start
    from its pages, not from the parent's. close() stops it.
    """

    def __init__(self, func, limit_s):
        sys.stdout.flush()
        sys.stderr.flush()
        req_read, req_write = os.pipe()
        res_read, res_write = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(req_write)
            os.close(res_read)
            code = 0
            try:
                _serve(func, limit_s, req_read, res_write)
            except BaseException:
                traceback.print_exc()
                code = 70
            finally:
                os._exit(code)
        os.close(req_read)
        os.close(res_write)
        self._requests = os.fdopen(req_write, "wb")
        self._results = os.fdopen(res_read, "rb")

    def run(self, *args):
        self._requests.write(json.dumps(args).encode() + b"\n")
        self._requests.flush()
        header = self._results.readline()
        if not header:
            raise RuntimeError("the forking child has exited")
        status, maxrss_mb, size = json.loads(header)
        value = json.loads(self._results.read(size)) if status == "ok" else None
        return ChildResult(status, value, maxrss_mb)

    def close(self):
        self._requests.close()
        self._results.close()
        os.waitpid(self._pid, 0)


def _serve(func, limit_s, req_fd, res_fd):
    with os.fdopen(req_fd, "rb") as requests, os.fdopen(res_fd, "wb") as results:
        for line in requests:
            args = json.loads(line)
            got = run_forked(lambda: func(*args), limit_s, decode=False)
            data = got.value or b""
            results.write(json.dumps([got.status, got.maxrss_mb, len(data)]).encode()
                          + b"\n" + data)
            results.flush()
