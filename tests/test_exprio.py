"""Text round trips, parse errors with offsets, JSON report serialization."""

import copy
import dataclasses
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_multigraph
from overlap_lab import (
    EMPTY,
    DeformationConfig,
    ExpressionParseError,
    GraphPolynomial,
    JsonSchemaError,
    QuenchedEstimate,
    big_delta,
    canonicalize,
    edge,
    format_monomial,
    format_polynomial,
    from_json,
    identity_check,
    lab,
    make_multigraph,
    parse_monomial,
    parse_polynomial,
    sk_model,
    theorem_verify,
    to_json,
    wick_baseline_check,
)
from overlap_lab.exprio import as_jsonable


class TestParseMonomial:
    def test_paper_style_example(self):
        g = parse_monomial("{1,2}^2{1,3}{2}")
        assert g.grading == (3, 1)
        assert g == make_multigraph([(1, 2, 2), (1, 3, 1)], [(2, 1)])

    def test_one_is_empty(self):
        assert parse_monomial("1") == EMPTY
        assert parse_monomial("  1  ") == EMPTY

    def test_unordered_and_merging(self):
        assert parse_monomial("{2,1}{1,2}") == edge(1, 2, 2)

    def test_whitespace_ignored(self):
        assert parse_monomial(" {1 , 2} ^ 2 {3} ") == make_multigraph(
            [(1, 2, 2)], [(3, 1)]
        )

    @pytest.mark.parametrize(
        "text, offset_of",
        [
            ("", "empty"),
            ("   ", "empty"),
            ("{1,1}", "loop"),
            ("{1,2}^0", "zero"),
            ("{1,2}^-1", "negative"),
            ("{1,2", "expected"),
            ("{a}", "integer"),
            ("{0}", "positive"),
            ("x", "expected"),
            ("1x", "after"),
            ("{1,2}}", "unexpected"),
        ],
    )
    def test_errors_carry_offsets(self, text, offset_of):
        with pytest.raises(ExpressionParseError) as exc:
            parse_monomial(text)
        assert offset_of in str(exc.value)
        assert 0 <= exc.value.offset <= len(text)

    def test_unicode_minus_rejected(self):
        with pytest.raises(ExpressionParseError, match="non-ASCII"):
            parse_monomial("{1,2}−{1,3}")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python has no int digit limit")
    @pytest.mark.parametrize("parse, text, offset", [
        (parse_monomial, "{1}^" + "9" * 4400, 4),
        (parse_polynomial, "9" * 4400 + "{1,2}", 0),
    ], ids=["exponent", "coefficient"])
    def test_long_literal_refused_with_the_limit_lifted(self, parse, text, offset):
        # The parser keeps the interpreter's bound on integer digits itself,
        # so a caller that lifts it to write long results still reads
        # bounded input.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ExpressionParseError, match=f"{limit} digits") as exc:
                parse(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert exc.value.offset == offset


class TestPolynomialText:
    def test_worked_example_rendering(self):
        text = format_polynomial(big_delta(parse_monomial("{1,2}")))
        assert text == "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}"

    def test_zero(self):
        assert format_polynomial(GraphPolynomial.zero()) == "0"
        assert parse_polynomial("0") == GraphPolynomial.zero()

    def test_signs_and_unit_coefficients(self):
        p = GraphPolynomial([(edge(1, 2), -1), (EMPTY, 3)])
        text = format_polynomial(p)
        assert parse_polynomial(text) == p

    def test_bare_integer_terms(self):
        assert parse_polynomial("3").coefficient(EMPTY) == 3
        assert parse_polynomial("-2 + {1,2}") == GraphPolynomial(
            [(EMPTY, -2), (edge(1, 2), 1)]
        )

    def test_stray_one_after_a_coefficient_is_the_empty_monomial(self):
        assert parse_polynomial("2 1") == parse_polynomial("2")
        assert parse_polynomial("2 1 - {1,2}") == GraphPolynomial(
            [(EMPTY, 2), (edge(1, 2), -1)])
        with pytest.raises(ExpressionParseError, match="unexpected text after '1'") as err:
            parse_polynomial("2 1 {1,2}")
        assert err.value.offset == 4  # the "{"

    def test_format_parse_roundtrip_random(self):
        rnd = random.Random(99)
        for _ in range(300):
            terms = [
                (random_multigraph(rnd), rnd.randint(-30, 30))
                for _ in range(rnd.randint(0, 4))
            ]
            p = GraphPolynomial(terms)
            assert parse_polynomial(format_polynomial(p)) == p

    def test_format_is_idempotent_under_reparse(self):
        text = "2{1,2}^2 - 8{1,2}{1,3} + 6{1,2}{3,4}"
        assert format_polynomial(parse_polynomial(text)) == text

    def test_noncanonical_input_reformats_canonically(self):
        # {2,3} and {1,2} are one class; formatting normalizes the labels
        p = parse_polynomial("{2,3} + {1,2}")
        assert format_polynomial(p) == "2{1,2}"

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_fuzz_never_crashes(self, text):
        for fn in (parse_monomial, parse_polynomial):
            try:
                fn(text)
            except ExpressionParseError:
                pass

    @given(st.text(max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_fuzz_arbitrary_unicode(self, text):
        try:
            parse_polynomial(text)
        except ExpressionParseError:
            pass


class TestMonomialFormat:
    def test_empty(self):
        assert format_monomial(EMPTY) == "1"

    def test_edges_then_legs_with_exponents(self):
        g = make_multigraph([(1, 2, 2), (1, 3, 1)], [(2, 3)])
        assert format_monomial(g) == "{1,2}^2{1,3}{2}^3"

    def test_parse_format_identity_on_canonical(self):
        rnd = random.Random(5)
        for _ in range(200):
            g = canonicalize(random_multigraph(rnd))
            assert parse_monomial(format_monomial(g)) == g


class TestJson:
    def test_theorem_report_roundtrip(self):
        rep = theorem_verify(parse_monomial("{1,2}"), 2)
        back = from_json(to_json(rep))
        assert back == rep

    def test_quenched_estimate_roundtrip(self):
        est = QuenchedEstimate(
            mean=0.1234567891234567,
            stderr=3.3e-05,
            samples=1000,
            seed=42,
            method="mc",
        )
        assert from_json(to_json(est)) == est

    def test_quadrature_truncation_survives(self):
        est = QuenchedEstimate(0.5, 0.0, 64, 0, "quadrature", truncation=1e-13)
        assert from_json(to_json(est)) == est

    def test_identity_report_roundtrip_echoes_lambda_grid(self):
        model = sk_model(2, 0.5)
        cfg = DeformationConfig(lambda_grid=(-0.1, -0.05, 0.05, 0.1))
        rep = identity_check(
            model, parse_monomial("{1,2}"), 1, method="quadrature", config=cfg
        )
        back = from_json(to_json(rep))
        assert back == rep
        assert back.lambda_grid == cfg.lambda_grid

    def test_large_coefficient_exact(self):
        p = GraphPolynomial.monomial(edge(1, 2), 10395)
        text = format_polynomial(p)
        assert parse_polynomial(text).coefficient(edge(1, 2)) == 10395
        rep = theorem_verify(parse_monomial("{1,2}"), 0)
        doc = json.loads(to_json(rep))
        assert isinstance(doc["payload"]["lhs"], str)

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '{"type": "unknown", "payload": {}}',
            '{"type": "quenched_estimate", "payload": {"mean": 1.0}}',
            '{"type": "quenched_estimate", "payload": {"mean": "x", "stderr": 0,'
            ' "samples": 1, "seed": 0, "method": "mc"}}',
            "not json at all",
        ],
    )
    def test_schema_violations_rejected(self, doc):
        with pytest.raises(JsonSchemaError):
            from_json(doc)


# One real report of each kind, with and without optional values.
REPORTS = (
    theorem_verify(parse_monomial("{1,2}{2,3}"), 1),
    QuenchedEstimate(0.25, 0.0, 64, 0, "quadrature", truncation=1e-12),
    QuenchedEstimate(0.5, 0.01, 100, 3, "mc"),
    identity_check(sk_model(2, 0.5), parse_monomial("{1,2}"), 1, method="quadrature",
                   n_nodes=8),
    wick_baseline_check(lab.ea_model((2, 2), 0.5), 30, 1),
)
DOCS = [json.loads(to_json(rep)) for rep in REPORTS]


def _replace(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` replaced by ``value``, or
    deleted when ``value`` is the ``DELETE`` marker."""
    doc = copy.deepcopy(doc)
    if not path:
        return None if value is DELETE else value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for k, child in enumerate(node):
            yield from _paths(child, path + (k,))


DELETE = object()
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(alphabet="{},^-+x0123456789 ab", max_size=12) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _decodes_or_refuses(doc):
    try:
        rep = from_json(json.dumps(doc))
    except JsonSchemaError:
        return
    assert type(rep) in {type(r) for r in REPORTS}


class TestJsonSchema:
    def test_payload_fields_are_the_dataclass_fields(self):
        for rep, doc in zip(REPORTS, DOCS):
            assert set(doc["payload"]) == {f.name for f in dataclasses.fields(rep)}
            assert doc["timings"] == {}

    def test_real_reports_round_trip(self):
        for rep in REPORTS:
            assert from_json(to_json(rep)) == rep

    def test_as_jsonable_refuses_other_objects(self):
        with pytest.raises(TypeError):
            as_jsonable(sk_model(2, 0.5))

    @pytest.mark.parametrize("kind, path, value", [
        (3, ("payload", "rows"), [1]),
        (3, ("payload", "model"), 3),
        (3, ("payload", "lambda_grid"), ["a"]),
        (3, ("payload", "n"), "zz"),
        (3, ("payload", "samples"), True),
        (1, ("payload", "samples"), True),
        (1, ("payload", "mean"), True),
        (1, ("payload", "mean"), 10**400),
        (1, ("payload", "truncation"), "0.1"),
        (0, ("payload", "n"), True),
        (0, ("payload", "equal"), 1),
        (0, ("payload", "graph"), "{1,1}"),
        (0, ("payload", "lhs"), "2{1,2} +"),
        (0, ("timings",), []),
        (1, ("timings",), "fast"),
        (3, ("payload", "rows", 0, "passed"), "yes"),
        (3, ("payload", "rows", 0, "lhs"), DELETE),
        (3, ("payload", "model", "kind"), "xy"),
        (3, ("payload", "model", "n_spins"), 30),
        (3, ("payload", "model", "beta"), -1),
        (3, ("payload", "model"), {"kind": "ea", "beta": 0.5, "dims": [2, 2.5]}),
        (3, ("payload", "model"), {"kind": "ea", "beta": 0.5, "dims": [100]}),
        (4, ("payload", "model", "dims"), DELETE),
        (4, ("payload", "passed"), None),
        (2, ("payload", "method"), None),
        (2, ("type",), "theorem_report"),
    ])
    def test_malformed_values_refused(self, kind, path, value):
        doc = _replace(DOCS[kind], path, value)
        with pytest.raises(JsonSchemaError):
            from_json(json.dumps(doc))

    def test_optional_fields_may_be_missing(self):
        doc = _replace(DOCS[4], ("payload", "graph"), DELETE)
        assert from_json(json.dumps(doc)).graph is None
        doc = _replace(DOCS[1], ("timings",), DELETE)
        assert from_json(json.dumps(doc)).truncation == 1e-12

    @pytest.mark.parametrize("text", ["[" * 100000, "1" * 5000, '{"type": 1}'])
    def test_unreadable_documents_refused(self, text):
        with pytest.raises(JsonSchemaError):
            from_json(text)

    @given(st.data())
    @settings(max_examples=600, deadline=None)
    def test_mutated_reports_decode_or_refuse(self, data):
        doc = DOCS[data.draw(st.integers(0, len(DOCS) - 1))]
        path = data.draw(st.sampled_from(list(_paths(doc))))
        value = data.draw(st.just(DELETE) | JSON | st.sampled_from(
            [DOCS[3]["payload"]["rows"][0], DOCS[3]["payload"]["model"],
             DOCS[4]["payload"]["model"]]))
        _decodes_or_refuses(_replace(doc, path, value))

    @given(JSON, st.sampled_from(["theorem_report", "quenched_estimate",
                                  "identity_report", None]))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_decodes_or_refuses(self, value, tag):
        _decodes_or_refuses(value if tag is None else {"type": tag, "payload": value})
