"""Completion providers: HTTP chat endpoints plus offline oracles and replay.

Every request is a single-turn, stateless exchange; there is no session
object anywhere, which is what guarantees the round trip's two halves
share no conversation state. Replies are cached keyed by (model, prompt
hash, temperature) so interrupted runs resume without re-billing.
"""

from __future__ import annotations

import hashlib
import json
import logging
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..syntax import And, Concat, Not, Or, ParseError, Star, make_expression, parse_expression
from ..syntax.nodes import FormalExpression, Quantified, children, rebuild
from ..verify import ProverBudget, verify_pair
from . import nl_codec

logger = logging.getLogger(__name__)

HTTP_CHAT = "http_chat"
SCRIPTED_REPLAY = "scripted_replay"
PERFECT_ORACLE = "perfect_oracle"
CORRUPTING_ORACLE = "corrupting_oracle"

PROVIDER_KINDS = (HTTP_CHAT, SCRIPTED_REPLAY, PERFECT_ORACLE, CORRUPTING_ORACLE)


class ProviderError(RuntimeError):
    def __init__(self, message: str = "", retry_after: float | None = None):
        super().__init__(message)
        # seconds a 429 or 503 reply asked for in its Retry-After header
        self.retry_after = retry_after


class TransportError(ProviderError):
    """A failure that asking again may mend: no reply, 408, 429 or 5xx."""


class ReplayMiss(ProviderError):
    pass


@dataclass
class ProviderConfig:
    kind: str = PERFECT_ORACLE
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_tokens: int = 1024
    timeout: float = 30.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    rate_limit_rpm: float = 0.0  # 0 disables limiting (offline kinds)
    credential_env: str = ""
    corruption_prob: float = 1.0
    seed: int = 0
    fixtures_path: str = ""

    def __post_init__(self):
        if self.kind not in PROVIDER_KINDS:
            raise ValueError(f"unknown provider kind {self.kind!r}")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.kind == HTTP_CHAT and self.rate_limit_rpm <= 0:
            raise ValueError("http_chat requires a positive rate limit")
        if not self.model:
            self.model = self.kind.replace("_", "-")

    @property
    def deterministic(self) -> bool:
        return self.kind != HTTP_CHAT


@dataclass
class Completion:
    text: str
    attempts: int = 1
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    cached: bool = False


def prompt_hash(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class ResponseCache:
    """Append-only jsonl cache, safe under concurrent access."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self._lock = threading.Lock()
        self._entries: dict[str, str] = {}
        if self.path and self.path.exists():
            from ..storage import read_complete_lines  # storage imports this package

            for line in read_complete_lines(self.path):
                if line.strip():
                    row = json.loads(line)
                    self._entries[row["key"]] = row["reply"]

    @staticmethod
    def key(model: str, prompt: str, temperature: float) -> str:
        return f"{model}:{prompt_hash(prompt)}:{temperature}"

    def get(self, key: str) -> str | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, reply: str):
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = reply
            if self.path:
                with self.path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"key": key, "reply": reply}) + "\n")


class RateLimiter:
    """Evenly spaced token bucket: at most rpm requests per minute."""

    def __init__(self, rpm: float):
        self.interval = 60.0 / rpm if rpm > 0 else 0.0
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def wait(self):
        if self.interval <= 0:
            return
        with self._lock:
            now = time.monotonic()
            delay = max(0.0, self._next_allowed - now)
            self._next_allowed = max(now, self._next_allowed) + self.interval
        if delay > 0:
            time.sleep(delay)


class Provider:
    """Stateful wrapper bundling config, fixtures, cache, and rate limiting."""

    def __init__(
        self,
        config: ProviderConfig,
        cache: ResponseCache | None = None,
        transport=None,
        budget: ProverBudget | None = None,
    ):
        self.config = config
        self.cache = cache
        self.transport = transport or _http_transport
        self.limiter = RateLimiter(config.rate_limit_rpm)
        self.budget = budget or ProverBudget()
        self._fixtures: dict[str, str] | None = None

    # -- public ------------------------------------------------------------

    def complete(self, prompt: str) -> Completion:
        key = ResponseCache.key(self.config.model, prompt, self.config.temperature)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                return Completion(hit, attempts=0, cached=True)
        completion = self._complete_uncached(prompt)
        if self.cache is not None:
            self.cache.put(key, completion.text)
        return completion

    # -- kinds ------------------------------------------------------------

    def _complete_uncached(self, prompt: str) -> Completion:
        kind = self.config.kind
        if kind == HTTP_CHAT:
            return self._http(prompt)
        if kind == SCRIPTED_REPLAY:
            return Completion(self._replay(prompt))
        # ProviderConfig refuses any other kind
        return Completion(self._oracle(prompt, corrupt=kind == CORRUPTING_ORACLE))

    def _replay(self, prompt: str) -> str:
        if self._fixtures is None:
            if not self.config.fixtures_path:
                raise ReplayMiss("no fixtures file configured")
            self._fixtures = load_fixtures(self.config.fixtures_path)
        try:
            return self._fixtures[prompt_hash(prompt)]
        except KeyError:
            raise ReplayMiss(
                f"no recorded reply for prompt hash {prompt_hash(prompt)[:12]}..."
            ) from None

    def _http(self, prompt: str) -> Completion:
        import os

        headers = {"Content-Type": "application/json"}
        if self.config.credential_env:
            key = os.environ.get(self.config.credential_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        if logger.isEnabledFor(logging.DEBUG):
            redacted = {k: ("<redacted>" if k == "Authorization" else v) for k, v in headers.items()}
            logger.debug("request %s headers=%s body=%s", self.config.endpoint, redacted, payload)
        last_error: Exception | None = None
        for attempt in range(1, self.config.max_attempts + 1):
            self.limiter.wait()
            try:
                body = self.transport(
                    self.config.endpoint, payload, headers, self.config.timeout
                )
                if logger.isEnabledFor(logging.DEBUG):
                    logger.debug("response attempt=%d body=%s", attempt, body)
                text = _reply_text(body)
                usage = body.get("usage")
                usage = usage if isinstance(usage, dict) else {}  # some servers send null
                return Completion(
                    text=text,
                    attempts=attempt,
                    prompt_tokens=usage.get("prompt_tokens"),
                    completion_tokens=usage.get("completion_tokens"),
                )
            except TransportError as e:
                last_error = e
                if attempt < self.config.max_attempts:
                    step = self.config.backoff_base * (2 ** (attempt - 1))
                    # jitter keeps clients that failed together from retrying together
                    time.sleep(max(e.retry_after or 0.0, step * random.uniform(0.5, 1.0)))
        raise TransportError(
            f"{self.config.max_attempts} attempts failed: {last_error}"
        )

    # -- oracles ----------------------------------------------------------

    def _oracle(self, prompt: str, corrupt: bool) -> str:
        task = classify_prompt(prompt)
        if task.direction == "interpret":
            expr = task.expression
            if expr is None:
                raise ProviderError("oracle could not parse the embedded formula")
            return nl_codec.describe(expr)
        if task.direction == "compile":
            expr = nl_codec.parse_description(task.description, task.formalism)
            if corrupt and self._corruption_roll(prompt):
                expr = corrupt_expression(expr, self._rng(prompt))
            return expr.canonical_text
        # judge: answer with the formal verifier's verdict
        verdict = verify_pair(
            task.formalism,
            task.pair[0].ast,
            task.pair[1].ast,
            budget=self.budget,
        )
        answer = "yes" if verdict.equivalent else "no"
        if corrupt and self._corruption_roll(prompt):
            answer = "no" if answer == "yes" else "yes"
        return f"The formal verifier decides this pair.\n[Answer] {answer}"

    def _rng(self, prompt: str) -> random.Random:
        seed = int(prompt_hash(prompt)[:12], 16) ^ self.config.seed
        return random.Random(seed)

    def _corruption_roll(self, prompt: str) -> bool:
        if self.config.corruption_prob >= 1.0:
            return True
        return self._rng(prompt).random() < self.config.corruption_prob


def load_fixtures(path: str | Path) -> dict[str, str]:
    from ..storage import read_jsonl  # storage imports this package

    return {row["prompt_sha256"]: row["reply"] for row in read_jsonl(path)}


def _reply_text(body) -> str:
    """The reply of a chat-completions body. A body without one is an
    error on its record; asking again would not mend it."""
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        text = None
    if not isinstance(text, str):
        raise ProviderError(f"response has no choices[0].message.content: {str(body)[:200]}")
    return text


def _http_transport(endpoint: str, payload: dict, headers: dict, timeout: float) -> dict:
    import requests

    try:
        resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as e:  # a timeout is one
        raise TransportError(str(e)) from e
    # a 429 or 503 may say how long to wait; only the delta-seconds form is read
    wait = resp.headers.get("Retry-After", "").strip()
    retry_after = float(wait) if wait.isdecimal() else None
    if resp.status_code == 429:
        raise TransportError("429 from endpoint", retry_after)
    if resp.status_code == 408:
        raise TransportError("request timeout 408 from endpoint")
    if resp.status_code >= 500:
        raise TransportError(
            f"server error {resp.status_code}", retry_after if resp.status_code == 503 else None
        )
    if resp.status_code != 200:
        # the request itself is refused: asking again would not mend it
        raise ProviderError(f"unexpected status {resp.status_code}: {resp.text[:200]}")
    return resp.json()


# ---------------------------------------------------------------------------
# prompt classification (oracles only)

@dataclass
class PromptTask:
    direction: str  # interpret | compile | judge
    formalism: str
    expression: FormalExpression | None = None
    description: str = ""
    pair: tuple = ()


def classify_prompt(prompt: str) -> PromptTask:
    formalism = _formalism_of(prompt)
    if "[NL DESCRIPTION]" in prompt:
        description = prompt.rsplit("[NL DESCRIPTION]", 1)[1].strip()
        return PromptTask("compile", formalism, description=description)
    if "[Formula 1]" in prompt:
        first = _between(prompt, "[Formula 1]", "[Formula 2]")
        second = prompt.rsplit("[Formula 2]", 1)[1].strip()
        try:
            pair = (parse_expression(formalism, first), parse_expression(formalism, second))
        except ParseError:
            raise ProviderError("judge prompt carries unparseable formulas") from None
        return PromptTask("judge", formalism, pair=pair)
    if "[FORMULA]" in prompt:
        tail = prompt.rsplit("[FORMULA]", 1)[1].strip()
        try:
            expr = parse_expression(formalism, tail)
        except ParseError:
            expr = None
        return PromptTask("interpret", formalism, expression=expr)
    raise ProviderError("prompt carries no recognized task marker")


def _between(text: str, start: str, end: str) -> str:
    return text.split(start, 1)[1].rsplit(end, 1)[0].strip()


def _formalism_of(prompt: str) -> str:
    lowered = prompt.lower()
    if "regular expression" in lowered:
        return "regex"
    if "first-order logic" in lowered or "first order logic" in lowered:
        return "fol"
    return "prop"


# ---------------------------------------------------------------------------
# corruption (metric plumbing tests)

def corrupt_expression(expr: FormalExpression, rng: random.Random) -> FormalExpression:
    """Flip exactly one operator; falls back to a wrapping when none exists.

    A logic formula gets one And/Or swapped, a regex loses one star; the
    operator is drawn by its rank in pre-order. The fallback negates a
    logic formula below its root chain of quantifiers."""
    regex = expr.formalism == "regex"
    root = expr.ast
    paths = _paths(root, (Star,) if regex else (And, Or))
    if paths:
        path = paths[rng.randrange(len(paths))]
        if regex:
            new_root = _replace_at(root, path, lambda star: star.child)
        else:
            new_root = _replace_at(root, path, lambda n: (Or if type(n) is And else And)(n.children))
    elif regex:
        new_root = Star(root)
    else:
        chain, node = (), root
        while type(node) is Quantified:
            chain, node = chain + (0,), node.body
        new_root = _replace_at(root, chain, Not)
    return make_expression(expr.formalism, new_root)


def _paths(node, types, path=()) -> list[tuple[int, ...]]:
    """Child-index paths from `node` to each node of one of `types`, in pre-order."""
    out = [path] if type(node) in types else []
    for i, child in enumerate(children(node)):
        out += _paths(child, types, path + (i,))
    return out


def _replace_at(node, path, edit):
    """`node` with the subtree at `path` replaced by `edit` of it. A Concat
    that lands in a Concat is spliced into it, as the parser reads it."""
    if not path:
        return edit(node)
    kids = list(children(node))
    i = path[0]
    kid = _replace_at(kids[i], path[1:], edit)
    kids[i:i + 1] = kid.children if type(node) is Concat and type(kid) is Concat else (kid,)
    return rebuild(node, kids)
