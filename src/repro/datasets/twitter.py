"""Synthetic Twitter-like dataset and its four evaluation queries.

The paper's Twitter dataset is 200 GB of real tweets collected through the
Twitter API and replicated tenfold (Table 1: ~2.7 KB/record, strings
dominant, max nesting depth 8, 53–208 scalar values per record).  The API
data is not redistributable, so this generator produces records with the
same *structural* characteristics — a user object, entity arrays with
hashtag objects, nested place/coordinates objects, and a long text field —
at a configurable scale.  Roughly one record in ``sparse_every`` carries a
few extra rarely-seen fields so the inferred schema keeps growing slowly,
as it does for real tweets.

``SQLPP`` holds the four queries of Appendix A.1 as SQL++ text:

* Q1 — ``COUNT(*)``
* Q2 — top-10 users by average tweet length (GROUP BY / ORDER BY)
* Q3 — top-10 users with most tweets containing the hashtag ``jobs``
  (EXISTS / GROUP BY / ORDER BY)
* Q4 — full scan ordered by the tweet timestamp (SELECT * / ORDER BY)
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, Optional


#: Default number of records used by the benchmark harness (scaled from the
#: paper's 77.6 M tweets down to something a laptop reproduces in seconds).
DEFAULT_SCALE = 4000

_HASHTAGS = ["jobs", "hiring", "career", "news", "sports", "music", "python",
             "data", "travel", "food", "vldb", "asterixdb"]
_CITIES = ["Irvine", "Riyadh", "Seattle", "Boston", "Austin", "Denver"]
_SOURCES = ["web", "android", "iphone", "ipad", "bot"]
_WORDS = ("lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor "
          "incididunt ut labore et dolore magna aliqua").split()


def generate(count: int = DEFAULT_SCALE, seed: int = 7, start_id: int = 0,
             timestamp_base: int = 1_556_496_000_000) -> Iterator[Dict[str, Any]]:
    """Yield ``count`` tweet-like records with deterministic content."""
    rng = random.Random(seed)
    for offset in range(count):
        tweet_id = start_id + offset
        user_id = rng.randrange(0, max(10, count // 20))
        n_hashtags = rng.choice([0, 1, 1, 2, 3])
        hashtags = [
            {"text": rng.choice(_HASHTAGS), "indices": [rng.randrange(0, 80), rng.randrange(80, 140)]}
            for _ in range(n_hashtags)
        ]
        text_words = rng.randrange(8, 25)
        record = {
            "id": tweet_id,
            "timestamp_ms": timestamp_base + tweet_id,
            "text": " ".join(rng.choice(_WORDS) for _ in range(text_words)),
            "lang": rng.choice(["en", "en", "en", "es", "ar", "fr"]),
            "source": rng.choice(_SOURCES),
            "retweet_count": rng.randrange(0, 1000),
            "favorite_count": rng.randrange(0, 5000),
            "truncated": rng.random() < 0.1,
            "created_at": f"2019-04-2{rng.randrange(0, 10)}T0{rng.randrange(0, 10)}:00:00Z",
            "in_reply_to_screen_name": f"u{rng.randrange(0, 1000):05d}" if rng.random() < 0.2 else None,
            "user": {
                "id": user_id,
                "name": f"user_{user_id}",
                "screen_name": f"u{user_id:05d}",
                "description": " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(3, 10))),
                "created_at": f"20{rng.randrange(10, 19)}-01-01T00:00:00Z",
                "profile_image_url": f"https://pbs.twimg.com/profile/{user_id}.jpg",
                "time_zone": rng.choice(["PST", "EST", "GMT", "AST", None]),
                "followers_count": rng.randrange(0, 100000),
                "friends_count": rng.randrange(0, 5000),
                "statuses_count": rng.randrange(1, 200000),
                "verified": rng.random() < 0.05,
                "location": {"city": rng.choice(_CITIES), "country_code": "US"},
            },
            "entities": {
                "hashtags": hashtags,
                "urls": [{"url": f"https://t.co/{tweet_id:x}", "expanded": rng.random() < 0.5}]
                if rng.random() < 0.3 else [],
                "user_mentions": [
                    {"screen_name": f"u{rng.randrange(0, 1000):05d}", "indices": [0, 8]}
                    for _ in range(rng.choice([0, 0, 1, 2]))
                ],
            },
            "coordinates": {
                "type": "Point",
                "coordinates": [round(rng.uniform(-180, 180), 5), round(rng.uniform(-90, 90), 5)],
            } if rng.random() < 0.2 else None,
        }
        if rng.random() < 0.05:
            # Occasional extra fields: the schema keeps evolving slowly.
            record["withheld_in_countries"] = ["XX"]
            record["possibly_sensitive"] = rng.random() < 0.5
        if rng.random() < 0.1:
            record["place"] = {
                "full_name": f"{rng.choice(_CITIES)}, USA",
                "place_type": "city",
                "bounding_box": {"type": "Polygon",
                                 "coords": [round(rng.uniform(-120, -70), 3) for _ in range(4)]},
            }
        yield record


def generate_update(record: Dict[str, Any], rng: random.Random,
                    allow_retype: bool = True) -> Dict[str, Any]:
    """Produce an updated version of a tweet (for the 50 %-update feed).

    Updates add fields, remove fields, or change a value's type — the three
    kinds of structural change the paper's update experiment exercises.
    ``allow_retype=False`` restricts updates to add/remove, which is what a
    dataset with a fully *declared* (closed) schema can legally accept.
    """
    updated = dict(record)
    actions = ["add", "remove", "retype"] if allow_retype else ["add", "remove"]
    action = rng.choice(actions)
    if action == "add":
        updated["edit_history"] = {"edits": rng.randrange(1, 5), "editable": True}
    elif action == "remove":
        for candidate in ("coordinates", "source", "truncated"):
            if candidate in updated:
                updated.pop(candidate)
                break
    else:
        updated["retweet_count"] = str(updated.get("retweet_count", 0))
    return updated


# ---------------------------------------------------------------------------
# Appendix A.1 queries
# ---------------------------------------------------------------------------

#: The four queries as SQL++ text (Appendix A.1 verbatim, modulo the dataset
#: name); tests/test_sqlpp_parity.py holds their rows to the reference model.
SQLPP = {
    "Q1": "SELECT VALUE count(*) FROM Tweets AS t",
    "Q2": """
        SELECT uname, avg(length(t.text)) AS a
        FROM Tweets AS t
        GROUP BY t.user.name AS uname
        ORDER BY a DESC
        LIMIT 10
    """,
    "Q3": """
        SELECT uname, count(*) AS c
        FROM Tweets AS t
        WHERE SOME ht IN t.entities.hashtags SATISFIES lowercase(ht.text) = 'jobs'
        GROUP BY t.user.name AS uname
        ORDER BY c DESC
        LIMIT 10
    """,
    "Q4": "SELECT * FROM Tweets AS t ORDER BY t.timestamp_ms",
}
