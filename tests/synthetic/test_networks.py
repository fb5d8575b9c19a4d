"""Unit tests for the bus/rail generators and named instances."""

import networkx as nx
import pytest

from repro.graph.station_graph import build_station_graph
from repro.synthetic.bus import BusNetworkConfig, generate_bus_network
from repro.synthetic.instances import (
    INSTANCE_NAMES,
    instance_config,
    make_instance,
)
from repro.synthetic.rail import RailNetworkConfig, generate_rail_network
from repro.timetable.validation import validate_timetable


def _strongly_connected(timetable) -> bool:
    sg = build_station_graph(timetable)
    g = nx.DiGraph()
    g.add_nodes_from(range(timetable.num_stations))
    for s in range(timetable.num_stations):
        for t in sg.successors(s).tolist():
            g.add_edge(s, t)
    return nx.is_strongly_connected(g)


class TestBusGenerator:
    def test_valid_and_fifo(self):
        tt = generate_bus_network(BusNetworkConfig(seed=3))
        validate_timetable(tt, require_fifo=True)

    def test_every_station_served(self):
        tt = generate_bus_network(BusNetworkConfig(seed=1))
        served = set()
        for c in tt.connections:
            served.add(c.dep_station)
            served.add(c.arr_station)
        assert served == set(range(tt.num_stations))

    def test_strongly_connected(self):
        tt = generate_bus_network(BusNetworkConfig(seed=2))
        assert _strongly_connected(tt)

    def test_deterministic(self):
        a = generate_bus_network(BusNetworkConfig(seed=9))
        b = generate_bus_network(BusNetworkConfig(seed=9))
        assert a.connections == b.connections

    def test_seed_changes_network(self):
        a = generate_bus_network(BusNetworkConfig(seed=0))
        b = generate_bus_network(BusNetworkConfig(seed=1))
        assert a.connections != b.connections

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError, match="grid"):
            BusNetworkConfig(width=1, height=5)

    def test_rejects_bad_route_lengths(self):
        with pytest.raises(ValueError, match="route"):
            BusNetworkConfig(min_route_length=1)
        with pytest.raises(ValueError, match="route_length"):
            BusNetworkConfig(min_route_length=5, max_route_length=3)


class TestRailGenerator:
    def test_valid_and_fifo(self):
        tt = generate_rail_network(RailNetworkConfig(seed=3))
        validate_timetable(tt, require_fifo=True)

    def test_strongly_connected(self):
        tt = generate_rail_network(RailNetworkConfig(seed=5))
        assert _strongly_connected(tt)

    def test_station_count(self):
        config = RailNetworkConfig(num_hubs=5, satellites_per_hub=3, seed=0)
        tt = generate_rail_network(config)
        assert tt.num_stations == 5 * (1 + 3)

    def test_hub_degree_dominates(self):
        tt = generate_rail_network(RailNetworkConfig(seed=0))
        sg = build_station_graph(tt)
        hub_degrees = [
            sg.degree(s.id) for s in tt.stations if "hub-" in s.name
        ]
        sat_degrees = [
            sg.degree(s.id) for s in tt.stations if "sat-" in s.name
        ]
        assert max(sat_degrees) <= 2
        assert max(hub_degrees) > 2

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError, match="hubs"):
            RailNetworkConfig(num_hubs=1)
        with pytest.raises(ValueError, match="satellites"):
            RailNetworkConfig(satellites_per_hub=-1)
        with pytest.raises(ValueError, match="stops"):
            RailNetworkConfig(intercity_stops=(1, 3))


class TestInstances:
    @pytest.mark.parametrize("name", INSTANCE_NAMES)
    def test_all_instances_generate_valid(self, name):
        tt = make_instance(name, scale="tiny")
        validate_timetable(tt)
        assert _strongly_connected(tt)

    def test_density_contrast_bus_vs_rail(self):
        """The paper's defining shape: city feeds are far denser per
        station than railway feeds."""
        bus = make_instance("losangeles", scale="tiny")
        rail = make_instance("europe", scale="tiny")
        assert bus.connections_per_station() > 2 * rail.connections_per_station()

    @pytest.mark.parametrize(
        ("name", "shape"),
        [
            ("oahu", BusNetworkConfig),
            ("losangeles", BusNetworkConfig),
            ("washington", BusNetworkConfig),
            ("germany", RailNetworkConfig),
            ("europe", RailNetworkConfig),
        ],
    )
    def test_each_instance_has_its_network_shape(self, name, shape):
        """City feeds are bus networks, the two countries railways."""
        assert isinstance(instance_config(name, scale="tiny"), shape)

    def test_unknown_instance(self):
        with pytest.raises(ValueError, match="unknown instance"):
            make_instance("atlantis")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            instance_config("oahu", scale="galactic")

    def test_scales_grow(self):
        tiny = make_instance("washington", scale="tiny")
        small = make_instance("washington", scale="small")
        assert small.num_stations > tiny.num_stations
        assert small.num_connections > tiny.num_connections

    def test_deterministic_in_seed(self):
        a = make_instance("germany", scale="tiny", seed=4)
        b = make_instance("germany", scale="tiny", seed=4)
        assert a.connections == b.connections
