"""A local OpenAI-compatible chat endpoint that answers extraction prompts
with the co-occurrence rule, after a fixed delay, and counts its calls.

It runs in a thread of the benchmark process; the engine's extractor
actors reach it over localhost HTTP, as they would a real endpoint.
"""

from __future__ import annotations

import http.server
import json
import threading
import time

from corpora import cooccurrence_records

MOCK_DELAY_S = 0.004
_TEXT_MARK = "\nText:\n"
_TD, _RD = "<|>", "##"


def wire_records(text: str, vocab: set[str]) -> str:
    """Delimited-record answer for one chunk."""
    ents, edges = cooccurrence_records(text, vocab)
    records = [f'("entity"{_TD}{n}{_TD}PERSON{_TD}{n} is mentioned)' for n in ents]
    records += [f'("relationship"{_TD}{a}{_TD}{b}{_TD}{a} appears near {b}{_TD}{w:g})'
                for a, b, w in edges]
    return _RD.join(records)


class MockLLM:
    """Answers the first extraction prompt of a chunk with its records and
    every other prompt (gleaning, stop probe) with no records."""

    def __init__(self, vocab: set[str], delay_s: float = MOCK_DELAY_S):
        self.vocab = vocab
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()
        mock = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["messages"][-1]["content"]
                time.sleep(mock.delay_s)
                answer = ""
                if _TEXT_MARK in prompt:
                    answer = wire_records(prompt.split(_TEXT_MARK, 1)[1], mock.vocab)
                with mock._lock:
                    mock.calls += 1
                payload = json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.daemon_threads = True
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.base_url = f"http://127.0.0.1:{self.server.server_address[1]}/v1"

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
