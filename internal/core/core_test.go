package core

import (
	"math"
	"testing"
)

func TestStringers(t *testing.T) {
	if Host.String() != "host" || MitM.String() != "mitm" || Operator.String() != "operator" {
		t.Fatal("privilege names")
	}
	if Infrastructure.String() != "infrastructure" || Endpoint.String() != "endpoint" {
		t.Fatal("target names")
	}
	if ImpactsString([]Impact{Privacy, Performance}) != "privacy,performance" {
		t.Fatal("impacts string")
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d entries", len(cat))
	}
	systems := map[string]bool{}
	for _, c := range cat {
		if c.Name == "" || c.System == "" || c.Section == "" || c.Run == nil {
			t.Fatalf("incomplete entry: %+v", c)
		}
		if len(c.Impacts) == 0 {
			t.Fatalf("%s has no impacts", c.Name)
		}
		if c.String() == "" {
			t.Fatal("empty row")
		}
		if c.MinPrivilege != Host && c.MinPrivilege != MitM && c.MinPrivilege != Operator {
			t.Fatalf("bad privilege in %s", c.Name)
		}
		if c.Target != Infrastructure && c.Target != Endpoint {
			t.Fatalf("bad target in %s", c.Name)
		}
		systems[c.System] = true
	}
	for _, want := range []string{"Blink", "Pytheas", "PCC", "NetHide/traceroute", "SP-PIFO", "FlowRadar", "RON", "DAPPER", "SilkRoad-style LB", "in-network BNN"} {
		if !systems[want] {
			t.Fatalf("missing case study for %s", want)
		}
	}
}

// TestCatalogRunsSucceed executes every case study at reduced scale and
// checks each attack's headline metric — the repository's end-to-end
// smoke test.
func TestCatalogRunsSucceed(t *testing.T) {
	for _, c := range Catalog() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			s := c.Run(7)
			if len(s.Metrics) == 0 {
				t.Fatal("no metrics")
			}
			for _, n := range s.Names() {
				if math.IsNaN(s.Metric(n)) {
					t.Fatalf("metric %s is NaN", n)
				}
			}
			switch c.Name {
			case "fake-retransmissions":
				if s.Metric("rerouted") != 1 {
					t.Fatalf("hijack failed: %+v", s.Metrics)
				}
			case "report-poisoning":
				if s.Metric("qoe_drop") < 0.5 {
					t.Fatalf("poisoning weak: %+v", s.Metrics)
				}
			case "utility-equalizer":
				if s.Metric("attacked_rate") > 0.5*s.Metric("clean_rate") {
					t.Fatalf("equalizer weak: %+v", s.Metrics)
				}
			case "fake-topology":
				if s.Metric("hidden_link_visible") != 0 {
					t.Fatalf("lie leaked: %+v", s.Metrics)
				}
			case "adversarial-ranks":
				if s.Metric("amplification") < 1.5 {
					t.Fatalf("rank attack weak: %+v", s.Metrics)
				}
			case "sketch-pollution":
				if s.Metric("victim_hidden") != 1 {
					t.Fatalf("targeted hiding failed: %+v", s.Metrics)
				}
			case "probe-manipulation":
				if s.Metric("diverted") != 1 {
					t.Fatalf("probe attack failed: %+v", s.Metrics)
				}
			case "diagnosis-misblaming":
				if s.Metric("attacked_blames_network") != 1 {
					t.Fatalf("misblaming failed: %+v", s.Metrics)
				}
			case "state-exhaustion":
				if s.Metric("broken_fraction") < 0.3 {
					t.Fatalf("exhaustion weak: %+v", s.Metrics)
				}
			case "adversarial-examples":
				if s.Metric("crafted_evasion") < 0.6 {
					t.Fatalf("evasion weak: %+v", s.Metrics)
				}
			}
		})
	}
}
