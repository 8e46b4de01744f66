package core

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/netem"
	"github.com/edge-mar/scatter/internal/sim"
)

func TestFabricDefaults(t *testing.T) {
	f := NewFabric(sim.New(1))
	cases := []struct {
		from, to string
		wantName string
	}{
		{"E1", "E1", "loopback"},
		{"E1", "E2", "e1-e2"},
		{"E2", "E1", "e1-e2"},
		{"E1", "cloud", "wan-transit"},
		{"cloud", "E2", "wan-transit"},
		{"client-1", "E1", "client-e1"},
		{"E1", "client-1", "client-e1"},
		{"client-1", "E2", "client-e1+lan"},
		{"client-1", "cloud", "client-e1+wan"},
	}
	for _, c := range cases {
		l := f.Link(c.from, c.to)
		if l.Config().Name != c.wantName {
			t.Errorf("Link(%s, %s) = %q, want %q", c.from, c.to, l.Config().Name, c.wantName)
		}
	}
}

func TestFabricLinksAreCached(t *testing.T) {
	f := NewFabric(sim.New(1))
	a := f.Link("E1", "E2")
	b := f.Link("E1", "E2")
	if a != b {
		t.Error("repeated Link() returned different links (stats would split)")
	}
	// Directions are distinct links.
	if f.Link("E2", "E1") == a {
		t.Error("reverse direction shares the forward link")
	}
}

func TestFabricClientToE2AddsLANHop(t *testing.T) {
	f := NewFabric(sim.New(1))
	direct := f.Link("client-1", "E1").Config().RTT
	viaLAN := f.Link("client-1", "E2").Config().RTT
	if viaLAN <= direct {
		t.Errorf("client->E2 RTT %v not above client->E1 %v", viaLAN, direct)
	}
}

func TestFabricSetLinkOverride(t *testing.T) {
	f := NewFabric(sim.New(1))
	custom := netem.LinkConfig{Name: "custom", RTT: 99 * time.Millisecond}
	f.SetLink("E1", "E2", custom)
	if got := f.Link("E1", "E2").Config().Name; got != "custom" {
		t.Errorf("override not applied: %s", got)
	}
	if got := f.Link("E2", "E1").Config().Name; got != "custom" {
		t.Errorf("override not bidirectional: %s", got)
	}
	// Override after a link was created invalidates the cache.
	f2 := NewFabric(sim.New(1))
	_ = f2.Link("E1", "E2")
	f2.SetLink("E1", "E2", custom)
	if got := f2.Link("E1", "E2").Config().RTT; got != 99*time.Millisecond {
		t.Errorf("cached link survived override: %v", got)
	}
}

func TestFabricSetClientAccess(t *testing.T) {
	f := NewFabric(sim.New(1))
	_ = f.Link("client-1", "E1") // populate cache
	lte := netem.LTE()
	f.SetClientAccess(lte)
	if got := f.Link("client-1", "E1").Config().RTT; got != lte.RTT {
		t.Errorf("client access RTT = %v, want %v", got, lte.RTT)
	}
	// Machine-to-machine links unaffected.
	if got := f.Link("E1", "E2").Config().Name; got != "e1-e2" {
		t.Errorf("machine link affected by client access override: %s", got)
	}
	// The E2 LAN hop still stacks on the new access profile.
	if got := f.Link("client-1", "E2").Config().RTT; got != lte.RTT+netem.EdgeLAN().RTT {
		t.Errorf("client->E2 RTT = %v", got)
	}
}

func TestFabricStats(t *testing.T) {
	f := NewFabric(sim.New(1))
	l := f.Link("E1", "E2")
	l.Transit(100)
	l.Transit(100)
	stats := f.Stats()
	if stats["E1->E2"].Sent != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestIsClient(t *testing.T) {
	if !IsClient("client-3") || IsClient("E1") || IsClient("cloud") {
		t.Error("IsClient misclassifies")
	}
}

// SetLink overrides the link configuration in both directions.
func (f *Fabric) SetLink(a, b string, cfg netem.LinkConfig) {
	f.overrides[a+"->"+b] = cfg
	f.overrides[b+"->"+a] = cfg
	delete(f.links, a+"->"+b)
	delete(f.links, b+"->"+a)
}

// Stats returns per-link statistics keyed by "from->to".
func (f *Fabric) Stats() map[string]netem.Stats {
	out := make(map[string]netem.Stats, len(f.links))
	for k, l := range f.links {
		out[k] = l.Stats()
	}
	return out
}
