package agent

import (
	"iter"
	"strings"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/orchestrator"
	"github.com/edge-mar/scatter/internal/wire"
)

// ApplyAdmissions enforces a heartbeat response's verdict set on a node's
// workers, keyed by each worker's configured step: listed services take
// their verdict, every other worker resets to admit — a controller
// restart can never wedge a service shut. Service names match
// case-insensitively; unknown ones are ignored.
func ApplyAdmissions(workers iter.Seq[*Worker], adm []orchestrator.ServiceAdmission) {
	var want [wire.NumSteps]core.AdmitState
	for _, a := range adm {
		if step, err := wire.ParseStep(strings.ToLower(a.Service)); err == nil {
			want[step] = core.ParseAdmitState(a.State)
		}
	}
	for w := range workers {
		w.SetAdmitState(want[w.cfg.Step])
	}
}

// AdmissionDigest snapshots the workers' enforcement per step — the
// verdict in force and the frames refused — for the obs exposition
// (Registry.SetAdmissionSource).
func AdmissionDigest(workers iter.Seq[*Worker]) obs.AdmissionDigest {
	var by [wire.NumSteps]*obs.AdmissionServiceDigest
	for w := range workers {
		s := by[w.cfg.Step]
		if s == nil {
			s = &obs.AdmissionServiceDigest{Service: w.cfg.Step.String(), State: w.AdmitState().String()}
			by[w.cfg.Step] = s
		}
		s.Drops += w.Stats().DroppedAdmission
	}
	var d obs.AdmissionDigest
	for _, s := range by {
		if s != nil {
			d.Services = append(d.Services, *s)
		}
	}
	return d
}
