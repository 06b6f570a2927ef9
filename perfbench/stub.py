"""Latency stub for ``cohortqa eval --retriever remote``.

A chat-completion server on 127.0.0.1 that speaks HTTP/1.1 keep-alive,
sleeps a fixed injected latency per request, and answers from the generated
fact table under the few-shot lookup protocol: a ```json {"answer": ...}```
block with the fact, or ``"idk"`` for a question the table lacks. It never
fails a request.

It checks that every request is a well-formed few-shot payload (a system
prompt, 11 exemplar user/assistant pairs identical across requests, and a
last user turn of ``"{question} ({type})"``) and counts requests and
in-flight concurrency. ``GET /stats`` returns the counters since the last
``GET /stats``; the malformed count never resets.

Run: python3 perfbench/stub.py --facts FACTS.jsonl
It prints the bound port on the first line of stdout and serves until
terminated.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from reference import load_facts, normalize

LATENCY_MS = 10.0  # injected on every chat-completion request
EXEMPLAR_PAIRS = 11
_LAST_TURN = re.compile(r"^(.*) \((int|float|str|bool|list)\)$", re.DOTALL)
_REPLY_BLOCK = re.compile(r"```json\s*(\{.*\})\s*```", re.DOTALL)


class Counters:
    """Requests and time-weighted in-flight concurrency for one window."""

    def __init__(self):
        self.lock = threading.Lock()
        self.malformed = 0
        self.first_problem = ""
        self.prefix = None  # messages before the last turn, once checked
        self._reset(time.perf_counter())

    def _reset(self, now: float) -> None:
        self.requests = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.busy_integral = 0.0
        self.first_start = None
        self.last_end = None
        self.last_change = now

    def _advance(self, now: float) -> None:
        self.busy_integral += self.in_flight * (now - self.last_change)
        self.last_change = now

    def enter(self) -> None:
        now = time.perf_counter()
        with self.lock:
            self._advance(now)
            self.requests += 1
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            if self.first_start is None:
                self.first_start = now

    def leave(self) -> None:
        now = time.perf_counter()
        with self.lock:
            self._advance(now)
            self.in_flight -= 1
            self.last_end = now

    def problem(self, text: str) -> None:
        with self.lock:
            self.malformed += 1
            self.first_problem = self.first_problem or text

    def check_prefix(self, prefix: list) -> bool:
        """True if this request carries the prefix of the first request."""
        with self.lock:
            if self.prefix is None:
                self.prefix = prefix
            return prefix == self.prefix

    def snapshot(self) -> dict:
        now = time.perf_counter()
        with self.lock:
            self._advance(now)
            span = (self.last_end or now) - (self.first_start or now)
            stats = {
                "http_requests": self.requests,
                "mean_in_flight": self.busy_integral / span if span > 0 else 0.0,
                "max_in_flight": self.max_in_flight,
                "malformed": self.malformed,
                "first_problem": self.first_problem,
            }
            self._reset(now)
            return stats


def check_payload(payload) -> tuple[str, str, str]:
    """(problem, question, kind); problem is empty for a well-formed payload."""
    if not isinstance(payload, dict) or not {"model", "temperature", "messages"} <= set(payload):
        return "payload lacks model, temperature or messages", "", ""
    messages = payload["messages"]
    if not isinstance(messages, list) or len(messages) != 2 + 2 * EXEMPLAR_PAIRS:
        return f"expected {2 + 2 * EXEMPLAR_PAIRS} messages", "", ""
    roles = [m.get("role") if isinstance(m, dict) else None for m in messages]
    want = ["system"] + ["user", "assistant"] * EXEMPLAR_PAIRS + ["user"]
    if roles != want:
        return f"roles {roles}", "", ""
    if not all(isinstance(m.get("content"), str) for m in messages):
        return "non-text content", "", ""
    system = messages[0]["content"]
    if not all(phrase in system for phrase in ('"answer"', "```json", '"idk"')):
        return "system prompt does not state the lookup protocol", "", ""
    for user, assistant in zip(messages[1:-1:2], messages[2:-1:2]):
        if not _LAST_TURN.match(user["content"]):
            return f"exemplar question {user['content']!r} lacks its type", "", ""
        block = _REPLY_BLOCK.search(assistant["content"])
        try:
            reply = json.loads(block.group(1)) if block else None
        except json.JSONDecodeError:
            reply = None
        if not isinstance(reply, dict) or set(reply) != {"answer"}:
            return f"exemplar reply {assistant['content']!r} is not a json answer block", "", ""
    match = _LAST_TURN.match(messages[-1]["content"])
    if not match:
        return f"last turn {messages[-1]['content']!r} is not '{{question}} ({{type}})'", "", ""
    return "", match.group(1), match.group(2)


def make_handler(facts: dict, counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # a reply is two small writes on a kept-alive socket; Nagle would
        # hold the second one for the client's delayed ACK
        disable_nagle_algorithm = True

        def log_message(self, *args):  # keep stderr quiet
            pass

        def _send(self, body: dict) -> None:
            data = json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            self._send(counters.snapshot())

        def do_POST(self):
            counters.enter()
            try:
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                try:
                    payload = json.loads(raw)
                except json.JSONDecodeError:
                    payload = None
                problem, question, kind = check_payload(payload)
                if not problem and not counters.check_prefix(payload["messages"][:-1]):
                    problem = "system prompt or exemplars differ from the first request"
                if problem:
                    counters.problem(problem)
                entry = facts.get(normalize(question))
                answer = entry[1] if entry is not None and entry[0] == kind else "idk"
                content = "[Explanation] Simple fact check.\n```json\n" + json.dumps({"answer": answer}) + "\n```"
                time.sleep(LATENCY_MS / 1000.0)
                self._send({"choices": [{"message": {"role": "assistant", "content": content}}]})
            finally:
                counters.leave()

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--facts", required=True)
    args = parser.parse_args(argv)
    counters = Counters()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(load_facts(args.facts), counters))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
