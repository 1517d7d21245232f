import contextlib
import http.server
import json
import random
import threading

import pytest

from conftest import random_fol, random_prop, random_regex
from formaltrip.pipeline import (
    Provider,
    ProviderConfig,
    ProviderError,
    ReplayMiss,
    ResponseCache,
    TransportError,
    corrupt_expression,
    describe,
    parse_description,
    prompt_hash,
)
from formaltrip.syntax import And, Or, Star, make_expression, parse_expression, parse_regex
from formaltrip.verify import equivalent_prop, equivalent_regex
from formaltrip.verify.verdict import Status


# --- nl codec ----------------------------------------------------------------

def test_codec_round_trips_random_expressions():
    # expressions compare by text, and some trees print alike (a regex Concat
    # nested in a Concat, an FOL Variable and a Constant of one name): compare
    # trees too
    rng = random.Random(31)
    for formalism, random_tree in (("prop", random_prop), ("regex", random_regex), ("fol", random_fol)):
        for _ in range(300):
            expr = make_expression(formalism, random_tree(rng))
            back = parse_description(describe(expr), formalism)
            assert back == expr and back.ast == expr.ast


def test_codec_handles_english_vocabulary():
    expr = parse_expression("fol", "∃ x1. (mourn(Morris, Archie) ∧ pardon(x1, Enzo))")
    back = parse_description(describe(expr), "fol")
    assert back == expr and back.ast == expr.ast


# --- config ------------------------------------------------------------------

def test_http_requires_rate_limit():
    with pytest.raises(ValueError):
        ProviderConfig(kind="http_chat", endpoint="http://x", rate_limit_rpm=0)


def test_negative_temperature_rejected():
    with pytest.raises(ValueError):
        ProviderConfig(kind="perfect_oracle", temperature=-1)


# --- replay --------------------------------------------------------------------

def test_replay_returns_recorded_reply(tmp_path):
    fixture = tmp_path / "f.jsonl"
    fixture.write_text(
        json.dumps({"prompt_sha256": prompt_hash("hello"), "reply": "recorded!"}) + "\n"
    )
    provider = Provider(
        ProviderConfig(kind="scripted_replay", fixtures_path=str(fixture))
    )
    assert provider.complete("hello").text == "recorded!"
    with pytest.raises(ReplayMiss):
        provider.complete("unknown prompt")


def test_replay_reply_may_hold_line_separators(tmp_path):
    reply = "a\u2028b\u2029c\u0085d"
    fixture = tmp_path / "f.jsonl"
    fixture.write_text(
        json.dumps({"prompt_sha256": prompt_hash("hello"), "reply": reply}, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    provider = Provider(ProviderConfig(kind="scripted_replay", fixtures_path=str(fixture)))
    assert provider.complete("hello").text == reply


# --- retry / transport -----------------------------------------------------------

def flaky_transport(failures: list[Exception]):
    calls = {"n": 0}

    def transport(endpoint, payload, headers, timeout):
        calls["n"] += 1
        if failures:
            raise failures.pop(0)
        return {
            "choices": [{"message": {"content": f"ok after {calls['n']}"}}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 2},
        }

    return transport, calls


def http_config():
    return ProviderConfig(
        kind="http_chat",
        endpoint="http://example.invalid/v1/chat",
        model="test-model",
        rate_limit_rpm=100000,
        backoff_base=0.001,
        max_attempts=3,
    )


def test_two_failures_then_success_is_three_attempts():
    transport, calls = flaky_transport([TransportError("429"), TransportError("503")])
    provider = Provider(http_config(), transport=transport)
    completion = provider.complete("prompt")
    assert completion.text == "ok after 3"
    assert completion.attempts == 3
    assert calls["n"] == 3


def test_retries_exhausted_raises_transport_error():
    transport, calls = flaky_transport(
        [TransportError("429"), TransportError("429"), TransportError("429")]
    )
    provider = Provider(http_config(), transport=transport)
    with pytest.raises(TransportError):
        provider.complete("prompt")
    assert calls["n"] == 3


def test_cache_prevents_second_request(tmp_path):
    transport, calls = flaky_transport([])
    cache = ResponseCache(tmp_path / "cache.jsonl")
    provider = Provider(http_config(), cache=cache, transport=transport)
    first = provider.complete("prompt")
    second = provider.complete("prompt")
    assert calls["n"] == 1
    assert second.cached and second.text == first.text
    # a fresh cache instance reloads from disk
    cache2 = ResponseCache(tmp_path / "cache.jsonl")
    provider2 = Provider(http_config(), cache=cache2, transport=transport)
    assert provider2.complete("prompt").cached


def test_cache_drops_a_torn_last_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("a", "first reply")
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"key": "b", "reply": "cut o')  # the run died mid-write
    cache = ResponseCache(path)
    assert cache.get("a") == "first reply"
    assert cache.get("b") is None
    cache.put("b", "second reply")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["key"] for line in lines] == ["a", "b"]
    assert ResponseCache(path).get("b") == "second reply"


# --- corruption -------------------------------------------------------------------

def test_forced_flip_on_conjunction():
    expr = parse_expression("prop", "p1 ∧ p2")
    rng = random.Random(0)
    corrupted = corrupt_expression(expr, rng)
    assert corrupted.canonical_text == "(p1 ∨ p2)"


def test_flip_single_operator_is_inequivalent():
    rng = random.Random(5)
    for left, right in (("p1", "p2"), ("p3", "p7")):
        expr = parse_expression("prop", f"{left} ∧ {right}")
        corrupted = corrupt_expression(expr, rng)
        verdict = equivalent_prop(expr.ast, corrupted.ast)
        assert verdict.status is Status.NOT_EQUIVALENT


def test_atom_corruption_wraps_negation():
    expr = parse_expression("prop", "p1")
    corrupted = corrupt_expression(expr, random.Random(0))
    assert corrupted.canonical_text == "¬p1"


def test_regex_corruption_changes_language_usually():
    expr = parse_expression("regex", "(01)*1")
    corrupted = corrupt_expression(expr, random.Random(0))
    assert corrupted.canonical_text != expr.canonical_text
    verdict = equivalent_regex(expr.ast, corrupted.ast, {"0", "1"})
    assert verdict.status is Status.NOT_EQUIVALENT


def test_an_unstarred_group_is_spliced_into_its_sequence():
    corrupted = corrupt_expression(parse_expression("regex", "0(01)*1"), random.Random(0))
    assert corrupted.canonical_text == "0011"
    assert corrupted.ast == parse_regex("0011")


def test_a_corrupted_regex_is_the_tree_its_text_parses_to():
    rng = random.Random(1)
    mismatched = 0
    for i in range(3000):
        expr = parse_expression("regex", make_expression("regex", random_regex(rng, 5)).canonical_text)
        corrupted = corrupt_expression(expr, random.Random(i))
        mismatched += parse_regex(corrupted.canonical_text) != corrupted.ast
    assert mismatched == 0


def test_corruption_ranks_operators_in_walk_order():
    # corrupt_expression draws an operator by its rank among `_paths`; that
    # rank must be the pre-order of `walk`, which the vocabulary block reads
    from formaltrip.pipeline.providers import _paths
    from formaltrip.syntax.nodes import children, walk

    rng = random.Random(43)
    for random_tree, types in ((random_prop, (And, Or)), (random_fol, (And, Or)),
                               (random_regex, (Star,))):
        for _ in range(300):
            root = random_tree(rng)
            reached = []
            for path in _paths(root, types):
                node = root
                for i in path:
                    node = children(node)[i]
                reached.append(node)
            assert reached == [n for n in walk(root) if type(n) in types]


def test_corruption_prob_half_corrupts_some_compile_replies_repeatably():
    from formaltrip.grammar import PROP, GenerationConfig, VocabularyConfig, generate_dataset
    from formaltrip.pipeline import load_template_set, run_round_trips

    records, _ = generate_dataset(PROP, VocabularyConfig(), GenerationConfig(
        depth=6, branching=20, sample_count=4, batches=2, seed=11))
    templates = load_template_set("prop", 0)

    def replies(kind, **kwargs):
        provider = Provider(ProviderConfig(kind=kind, **kwargs))
        return [(r.interpretation, r.raw_reply) for r in run_round_trips(records, provider, templates)]

    perfect = replies("perfect_oracle")
    half = replies("corrupting_oracle", corruption_prob=0.5)
    assert [i for i, _ in half] == [i for i, _ in perfect]  # interpretations are never corrupted
    corrupted = [h != p for h, p in zip(half, perfect)]
    assert 0 < sum(corrupted) < len(corrupted)
    assert replies("corrupting_oracle", corruption_prob=0.5) == half


def test_rate_limiter_spaces_requests():
    import time

    from formaltrip.pipeline.providers import RateLimiter

    limiter = RateLimiter(rpm=60 * 50)  # 50 per second -> 20ms spacing
    started = time.monotonic()
    for _ in range(4):
        limiter.wait()
    elapsed = time.monotonic() - started
    assert elapsed >= 0.055  # three 20ms gaps, allowing scheduler slack


@contextlib.contextmanager
def local_server(handler):
    """Serve `handler` on a free localhost port; yields the chat endpoint."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    finally:
        server.shutdown()
        server.server_close()


def test_http_chat_against_local_server():
    from formaltrip.pipeline.providers import classify_prompt
    from formaltrip.pipeline import describe, parse_description

    class Handler(http.server.BaseHTTPRequestHandler):
        calls = 0

        def do_POST(self):
            type(self).calls += 1
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            assert payload["messages"][0]["role"] == "user"
            prompt = payload["messages"][0]["content"]
            task = classify_prompt(prompt)
            if task.direction == "interpret":
                reply = describe(task.expression)
            else:
                reply = parse_description(task.description, task.formalism).canonical_text
            body = json.dumps(
                {
                    "choices": [{"message": {"content": reply}}],
                    "usage": {"prompt_tokens": 7, "completion_tokens": 3},
                }
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    with local_server(Handler) as endpoint:
        from formaltrip.grammar import PROP, GenerationConfig, VocabularyConfig, generate_dataset
        from formaltrip.pipeline import load_template_set
        from formaltrip.pipeline.runner import round_trip

        records, _ = generate_dataset(
            PROP, VocabularyConfig(),
            GenerationConfig(depth=5, branching=10, sample_count=2, batches=1, seed=1),
        )
        config = ProviderConfig(
            kind="http_chat",
            endpoint=endpoint,
            model="local-test",
            rate_limit_rpm=100000,
        )
        provider = Provider(config)
        out = round_trip(records[0], provider, load_template_set("prop", 0))
        assert out.verdict_status == "equivalent"
        assert out.tokens["interpret_prompt"] == 7
        assert out.timings["interpret_seconds"] > 0  # live provider records real timings
        assert Handler.calls == 2


@pytest.mark.parametrize("status,requests_made,error", [
    (400, 1, ProviderError),
    (401, 1, ProviderError),
    (408, 3, TransportError),
    (503, 3, TransportError),
])
def test_http_status_retried_only_when_transient(status, requests_made, error):
    from formaltrip.grammar import PROP, GenerationConfig, VocabularyConfig, generate_dataset
    from formaltrip.pipeline import load_template_set
    from formaltrip.pipeline.runner import round_trip

    class Handler(http.server.BaseHTTPRequestHandler):
        calls = 0

        def do_POST(self):
            type(self).calls += 1
            self.rfile.read(int(self.headers["Content-Length"]))
            body = b'{"error": "refused"}'
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    with local_server(Handler) as endpoint:
        config = ProviderConfig(
            kind="http_chat", endpoint=endpoint, model="local-test",
            rate_limit_rpm=100000, backoff_base=0.0, max_attempts=3,
        )
        with pytest.raises(ProviderError) as raised:
            Provider(config).complete("prompt")
        assert type(raised.value) is error
        assert Handler.calls == requests_made

        records, _ = generate_dataset(
            PROP, VocabularyConfig(),
            GenerationConfig(depth=5, branching=10, sample_count=2, batches=1, seed=1),
        )
        out = round_trip(records[0], Provider(config), load_template_set("prop", 0))
        assert out.error.startswith(f"{error.__name__}: ")
        assert str(status) in out.error
        assert Handler.calls == 2 * requests_made
        assert out.verdict_status is None


@pytest.mark.parametrize("status", [429, 503])
def test_retry_after_sets_the_floor_of_the_backoff(monkeypatch, status):
    from formaltrip.pipeline import providers

    class Handler(http.server.BaseHTTPRequestHandler):
        calls = 0

        def do_POST(self):
            type(self).calls += 1
            self.rfile.read(int(self.headers["Content-Length"]))
            if type(self).calls == 1:
                body = b'{"error": "slow down"}'
                self.send_response(status)
                self.send_header("Retry-After", "2")
            else:
                body = json.dumps({"choices": [{"message": {"content": "p1"}}]}).encode()
                self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    sleeps = []
    monkeypatch.setattr(providers.time, "sleep", sleeps.append)
    with local_server(Handler) as endpoint:
        config = ProviderConfig(
            kind="http_chat", endpoint=endpoint, model="local-test",
            rate_limit_rpm=1e9, backoff_base=0.001, max_attempts=3,
        )
        completion = Provider(config).complete("prompt")
    assert completion.text == "p1"
    assert completion.attempts == 2
    assert len(sleeps) == 1
    assert sleeps[0] >= 2


def test_backoff_steps_are_jittered_below_the_exponential_step(monkeypatch):
    from formaltrip.pipeline import providers

    sleeps = []
    monkeypatch.setattr(providers.time, "sleep", sleeps.append)
    transport, _ = flaky_transport([TransportError("503")] * 5)
    config = http_config()
    config.max_attempts, config.backoff_base, config.rate_limit_rpm = 5, 1.0, 1e9
    with pytest.raises(TransportError):
        Provider(config, transport=transport).complete("prompt")
    assert len(sleeps) == 4
    for attempt, slept in enumerate(sleeps):
        assert 0.5 * 2**attempt <= slept <= 2**attempt
    assert sleeps != [1.0, 2.0, 4.0, 8.0]  # not the bare exponential steps


def test_oracle_reads_its_prompts_strictly():
    from formaltrip.pipeline.providers import classify_prompt

    prose = "The answer is p1 ∧ p2."
    assert classify_prompt("[FORMULA]\n" + prose).expression is None
    with pytest.raises(ProviderError):
        classify_prompt("[Formula 1]\n(p1 ∧ p2)\n\n[Formula 2]\n" + prose)
    task = classify_prompt("[Formula 1]\n(p1 ∧ p2)\n\n[Formula 2]\n¬p1")
    assert [e.canonical_text for e in task.pair] == ["(p1 ∧ p2)", "¬p1"]
