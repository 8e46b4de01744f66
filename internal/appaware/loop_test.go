package appaware

import (
	"encoding/json"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/wire"
)

// TestScaleEventJSON pins the /api/v1/autoscaler wire form: scale events
// carry a verb and no admit key, verdict changes an empty verb and the
// new verdict.
func TestScaleEventJSON(t *testing.T) {
	at := time.Unix(100, 0).UTC()
	cases := []struct {
		ev   ScaleEvent
		want string
	}{
		{ScaleEvent{At: at, Step: wire.StepSIFT, Verb: VerbScaleUp, Machine: "E2", Reason: "r"},
			`{"at":"1970-01-01T00:01:40Z","service":"sift","verb":"scale-up","node":"E2","reason":"r"}`},
		{ScaleEvent{At: at, Step: wire.StepLSH, Reason: "x", Admission: true, Admit: core.AdmitOK},
			`{"at":"1970-01-01T00:01:40Z","service":"lsh","verb":"","reason":"x","admission":true,"admit":"admit"}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("json = %s\nwant   %s", got, c.want)
		}
	}
}
