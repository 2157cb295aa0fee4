"""Synthetic Web-of-Science-like dataset and its four evaluation queries.

The paper's WoS dataset is 253 GB of publication metadata converted from XML
to JSON (Table 1: ~6.2 KB/record, deep nesting, strings dominant, and —
because of the XML conversion — *union-typed* fields where a value is
sometimes a single object and sometimes an array of objects).  This
generator reproduces those characteristics: publications with authors,
addresses, funding, subject categories, and an ``addresses.address_name``
field that is an object for single-institute papers and an array of objects
otherwise, which is exactly the heterogeneity the tuple compactor's union
nodes have to absorb.

``SQLPP`` holds the four queries of Appendix A.2 as SQL++ text:

* Q1 — ``COUNT(*)``
* Q2 — top-10 subject categories by number of publications
* Q3 — top-10 countries co-publishing with US institutes
* Q4 — top-10 country pairs by number of co-published articles
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Any, Dict, Iterator, List

from ..query import register_function

DEFAULT_SCALE = 2500

_COUNTRIES = ["USA", "China", "Germany", "UK", "Japan", "France", "Saudi Arabia",
              "Canada", "South Korea", "Brazil", "India", "Australia"]
_SUBJECTS = ["Computer Science", "Physics", "Chemistry", "Biology", "Mathematics",
             "Medicine", "Engineering", "Materials Science", "Economics", "Psychology"]
_INSTITUTES = ["UC Irvine", "KACST", "MIT", "Tsinghua", "Max Planck", "Oxford",
               "U Tokyo", "Sorbonne", "KAIST", "USP"]
_WORDS = ("study analysis results method data model system experiment evaluation approach "
          "novel framework performance distributed storage query compaction schema").split()


def _address(rng: random.Random) -> Dict[str, Any]:
    return {
        "address_spec": {
            "country": rng.choice(_COUNTRIES),
            "city": f"City{rng.randrange(0, 50)}",
            "organizations": {"organization": rng.choice(_INSTITUTES)},
            "zip": {"location": "post", "value": f"{rng.randrange(10000, 99999)}"},
        }
    }


def generate(count: int = DEFAULT_SCALE, seed: int = 11, start_id: int = 0) -> Iterator[Dict[str, Any]]:
    """Yield ``count`` publication records with deterministic content."""
    rng = random.Random(seed)
    for offset in range(count):
        publication_id = start_id + offset
        n_authors = rng.randrange(1, 6)
        n_addresses = rng.choice([1, 1, 2, 2, 3, 4])
        addresses: Any = [_address(rng) for _ in range(n_addresses)]
        if n_addresses == 1 and rng.random() < 0.5:
            # The XML-to-JSON conversion artifact: a single address is an
            # object, multiple addresses are an array -> union(object, array).
            addresses = addresses[0]
        n_subjects = rng.randrange(1, 4)
        record = {
            "id": publication_id,
            "UID": f"WOS:{publication_id:012d}",
            "static_data": {
                "summary": {
                    "pub_info": {
                        "pubyear": 1980 + publication_id % 37,
                        "pubtype": rng.choice(["Journal", "Conference", "Book"]),
                        "page_count": rng.randrange(4, 40),
                        "has_abstract": rng.random() < 0.8,
                    },
                    "titles": {
                        "title": " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(6, 14))).title(),
                        "source": f"Journal of {rng.choice(_SUBJECTS)}",
                    },
                    "names": {
                        "count": n_authors,
                        "name": [
                            {
                                "display_name": f"Author {rng.randrange(0, 5000)}",
                                "seq_no": index + 1,
                                "role": "author",
                                "reprint": "Y" if index == 0 else "N",
                            }
                            for index in range(n_authors)
                        ],
                    },
                },
                "fullrecord_metadata": {
                    "addresses": {"count": n_addresses, "address_name": addresses},
                    "category_info": {
                        "subjects": {
                            "subject": [
                                {"ascatype": rng.choice(["traditional", "extended"]),
                                 "value": rng.choice(_SUBJECTS)}
                                for _ in range(n_subjects)
                            ]
                        }
                    },
                    "fund_ack": {
                        "grants": {
                            "grant": [{"grant_agency": rng.choice(_INSTITUTES),
                                       "grant_ids": {"grant_id": f"G-{rng.randrange(10**6):06d}"}}
                                      for _ in range(rng.choice([0, 0, 1, 2]))]
                        }
                    } if rng.random() < 0.6 else None,
                    "abstracts": {
                        "abstract": {
                            "abstract_text": {
                                "p": " ".join(rng.choice(_WORDS) for _ in range(rng.randrange(40, 120))),
                            }
                        }
                    },
                },
            },
            "dynamic_data": {
                "citation_related": {
                    "tc_list": {"silo_tc": {"local_count": rng.randrange(0, 500), "coll_id": "WOS"}}
                }
            },
        }
        yield record


# ---------------------------------------------------------------------------
# Appendix A.2 queries
# ---------------------------------------------------------------------------

_ADDRESS_PATH = ("static_data", "fullrecord_metadata", "addresses", "address_name")
_SUBJECT_PATH = ("static_data", "fullrecord_metadata", "category_info", "subjects", "subject")


def _register_pair_function() -> None:
    """Register the country-pair helper used by Q4 (ordered 2-combinations)."""

    def array_pairs(values):
        if not isinstance(values, list):
            return []
        ordered = sorted({value for value in values if isinstance(value, str)})
        return [list(pair) for pair in combinations(ordered, 2)]

    register_function("array_pairs", array_pairs)

    def to_array(value):
        """XML-conversion artifact helper: wrap lone objects into an array."""
        if isinstance(value, list):
            return value
        if value is None:
            return []
        return [value]

    register_function("to_array", to_array)


_register_pair_function()


_ADDRESS_SQLPP = "t." + ".".join(_ADDRESS_PATH)
_SUBJECT_SQLPP = "t." + ".".join(_SUBJECT_PATH)

#: The four queries as SQL++ text.  ``[*]`` is the wildcard path step the
#: engine's record views understand (the paper's consolidated ``getValues``
#: shape); ``array_pairs`` is the workload-registered function above.
#: tests/test_sqlpp_parity.py holds their rows to the reference model.
SQLPP = {
    "Q1": "SELECT VALUE count(*) FROM Publications AS t",
    "Q2": f"""
        SELECT v, count(*) AS cnt
        FROM Publications AS t
        UNNEST {_SUBJECT_SQLPP} AS subject
        WHERE subject.ascatype = 'extended'
        GROUP BY subject.value AS v
        ORDER BY cnt DESC
        LIMIT 10
    """,
    "Q3": f"""
        SELECT country, count(*) AS cnt
        FROM Publications AS t
        LET countries = array_distinct({_ADDRESS_SQLPP}[*].address_spec.country)
        UNNEST countries AS country
        WHERE is_array({_ADDRESS_SQLPP})
          AND array_count(countries) > 1
          AND array_contains(countries, 'USA')
          AND country != 'USA'
        GROUP BY country
        ORDER BY cnt DESC
        LIMIT 10
    """,
    "Q4": f"""
        SELECT pair, count(*) AS cnt
        FROM Publications AS t
        LET countries = array_distinct({_ADDRESS_SQLPP}[*].address_spec.country),
            pairs = array_pairs(countries)
        UNNEST pairs AS pair
        WHERE is_array({_ADDRESS_SQLPP})
          AND array_count(countries) > 1
        GROUP BY pair
        ORDER BY cnt DESC
        LIMIT 10
    """,
}
