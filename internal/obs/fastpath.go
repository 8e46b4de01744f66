package obs

import (
	"fmt"
	"io"
)

// FastPathDigest is the live snapshot of the tracker-gated recognition
// fast path on one node: frames answered from the gate vs full
// recognitions, and the number of clients with a live verdict.
type FastPathDigest struct {
	Skips   uint64 `json:"skips"`
	Fulls   uint64 `json:"fulls"`
	Clients int    `json:"clients"`
}

// SetFastPathSource installs the snapshot function the registry exposes
// as scatter_fastpath_* series and in /metrics.json. Called on every
// scrape; it should be cheap (counter loads plus one short map lock). A
// nil source removes the exposition.
func (r *Registry) SetFastPathSource(fn func() FastPathDigest) {
	r.fastPathSrc.Store(fastPathSource{fn})
}

// fastPathSource wraps the snapshot func so atomic.Value always stores
// one concrete type.
type fastPathSource struct {
	fn func() FastPathDigest
}

// FastPathDigest snapshots the installed fast-path source; ok is false
// when no gate is publishing.
func (r *Registry) FastPathDigest() (FastPathDigest, bool) {
	src, ok := r.fastPathSrc.Load().(fastPathSource)
	if !ok || src.fn == nil {
		return FastPathDigest{}, false
	}
	return src.fn(), true
}

// writeTextFastPath renders the fast-path snapshot as Prometheus text
// lines.
func writeTextFastPath(w io.Writer, d FastPathDigest) {
	fmt.Fprintf(w, "# TYPE scatter_fastpath_skips_total counter\n")
	fmt.Fprintf(w, "scatter_fastpath_skips_total %d\n", d.Skips)
	fmt.Fprintf(w, "# TYPE scatter_fastpath_fulls_total counter\n")
	fmt.Fprintf(w, "scatter_fastpath_fulls_total %d\n", d.Fulls)
	fmt.Fprintf(w, "# TYPE scatter_fastpath_clients gauge\n")
	fmt.Fprintf(w, "scatter_fastpath_clients %d\n", d.Clients)
}
