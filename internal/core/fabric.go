package core

import (
	"strings"

	"github.com/edge-mar/scatter/internal/netem"
	"github.com/edge-mar/scatter/internal/sim"
)

// Fabric is the simulated network connecting clients and machines. Links
// are directional and created lazily from a default topology that mirrors
// the paper's testbed: services on the same machine use loopback, E1↔E2
// cross the LAN, anything touching the cloud crosses the WAN, and clients
// (wired to E1) reach E2 through one extra LAN hop. Experiments override
// individual links (for example the client access link in Fig. 9).
type Fabric struct {
	eng       *sim.Engine
	links     map[string]*netem.Link
	overrides map[string]netem.LinkConfig
	// ClientAccess, when set, replaces the default client→machine and
	// machine→client link configuration (used by the mobile-connectivity
	// experiments).
	clientAccess *netem.LinkConfig
}

// NewFabric creates an empty fabric on the engine.
func NewFabric(eng *sim.Engine) *Fabric {
	return &Fabric{
		eng:       eng,
		links:     make(map[string]*netem.Link),
		overrides: make(map[string]netem.LinkConfig),
	}
}

// IsClient reports whether the endpoint name denotes a client host.
func IsClient(name string) bool { return strings.HasPrefix(name, "client") }

// SetClientAccess overrides the access link used between every client and
// every machine (both directions).
func (f *Fabric) SetClientAccess(cfg netem.LinkConfig) {
	f.clientAccess = &cfg
	// Invalidate cached client links.
	for k := range f.links {
		if IsClient(strings.Split(k, "->")[0]) || IsClient(strings.SplitN(k, "->", 2)[1]) {
			delete(f.links, k)
		}
	}
}

// Link returns the directional link from one endpoint to another,
// creating it from overrides or topology defaults on first use.
func (f *Fabric) Link(from, to string) *netem.Link {
	key := from + "->" + to
	if l, ok := f.links[key]; ok {
		return l
	}
	cfg, ok := f.overrides[key]
	if !ok {
		cfg = f.defaultFor(from, to)
	}
	l := netem.NewLink(cfg, f.eng.Rand())
	f.links[key] = l
	return l
}

func (f *Fabric) defaultFor(from, to string) netem.LinkConfig {
	if from == to {
		return netem.Loopback()
	}
	cf, ct := IsClient(from), IsClient(to)
	if cf || ct {
		machine := from
		if cf {
			machine = to
		}
		base := netem.ClientEdge()
		if f.clientAccess != nil {
			base = *f.clientAccess
		}
		switch machine {
		case "E2":
			// Clients are wired to E1; E2 adds the LAN hop.
			base.RTT += netem.EdgeLAN().RTT
			base.Name += "+lan"
		case "cloud":
			// The WAN path dominates; access characteristics still apply.
			wan := netem.CloudWAN()
			base.RTT += wan.RTT
			base.Jitter += wan.Jitter
			base.Loss = 1 - (1-base.Loss)*(1-wan.Loss)
			base.Name += "+wan"
		}
		return base
	}
	if from == "cloud" || to == "cloud" {
		// Machine-to-machine transit into the cloud carries the full
		// inter-service frame stream; see netem.CloudWANTransit.
		return netem.CloudWANTransit()
	}
	return netem.EdgeLAN()
}
