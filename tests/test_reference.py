"""The route runner and cross-check: which routes run, and the one agreement rule."""

from math import comb

import pytest

from twindex import BadParameter, RouteDisagreement, steiner_wiener_reduced_with_stats
from twindex import reference
from twindex.generators import family_graph, star_graph
from twindex.reference import NAIVE_CAP, agree, cross_check, run_route


class TestCrossCheck:
    def test_naive_and_reduced(self):
        assert cross_check("power:Z6", 3) == {"naive": 41, "reduced": 41}

    def test_wiener_route_at_m2(self):
        routes = cross_check("power:D12", 2)
        assert list(routes) == ["naive", "wiener", "reduced"]
        assert set(routes.values()) == {113}

    def test_closed_form_route(self):
        assert cross_check("multipartite:3,3,3", 5) == {
            "naive": 504, "reduced": 504, "closed_form": 504,
        }

    def test_naive_left_out_over_the_cap(self, monkeypatch):
        # A 100-vertex star: C(100, 4) = 3,921,225 subsets, and two twin classes.
        assert comb(100, 4) > NAIVE_CAP

        def never(g, m, progress=None):
            raise AssertionError("the naive route ran over the cap")

        monkeypatch.setattr(reference, "steiner_wiener_naive", never)
        routes = cross_check("star:100", 4)
        assert list(routes) == ["reduced"]

    def test_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(reference, "NAIVE_CAP", comb(6, 3))
        assert "naive" in cross_check("power:Z6", 3)
        monkeypatch.setattr(reference, "NAIVE_CAP", comb(6, 3) - 1)
        assert "naive" not in cross_check("power:Z6", 3)

    def test_disagreement_carries_every_route(self, monkeypatch):
        def off_by_one(d, m, **options):
            value, stats = steiner_wiener_reduced_with_stats(d, m, **options)
            return value + 1, stats

        monkeypatch.setattr(reference, "steiner_wiener_reduced_with_stats", off_by_one)
        with pytest.raises(RouteDisagreement) as exc:
            cross_check("power:Z6", 3)
        assert exc.value.routes == {"naive": 41, "reduced": 42}
        assert str(exc.value) == "method disagreement on power:Z6 m=3: naive=41 reduced=42"

    def test_star_is_multipartite(self):
        # verify-paper's star sweep runs on these specs.
        for n in range(4, 11):
            assert family_graph(f"multipartite:1,{n - 1}") == star_graph(n)


class TestRunRoute:
    def test_every_route_names_itself(self):
        g = family_graph("multipartite:2,2")
        for method in ("naive", "wiener", "reduced", "closed_form"):
            record = run_route(method, 2, g, "multipartite:2,2", source="K", command="t")
            assert (record.method, record.value, record.input) == (method, "8", "K")
            assert (record.num_classes is None) == (method != "reduced")

    def test_progress_from_both_engine_routes(self):
        # power:Z120 has 15 twin classes, so the reduced route runs the
        # kernel and reports its C(15, 3) top-level supports; the naive
        # route reports the C(120, 3) subsets.
        g = family_graph("power:Z120")
        for method, total in (("reduced", comb(15, 3)), ("naive", comb(120, 3))):
            calls = []
            record = run_route(
                method, 3, g, None, source="x", command="t", progress=lambda *c: calls.append(c)
            )
            assert record.value == "623599"
            assert calls and calls[-1] == (total, total)

    def test_wiener_route_is_m2_only(self):
        # W is SW_2; the route must not answer another m with it.
        with pytest.raises(BadParameter, match="SW_2 only"):
            run_route("wiener", 3, family_graph("power:Z6"), None, source="x", command="t")

    def test_unknown_route_is_refused(self):
        # A mistyped route must not fall through to reduced under its own name.
        with pytest.raises(BadParameter, match="unknown route 'bogus'"):
            run_route("bogus", 3, family_graph("power:Z6"), None, source="x", command="t")


class TestAgree:
    def test_single_value(self):
        assert agree({"naive": 7, "reduced": 7, "closed_form": 7}, "x m=2") == 7

