package orchestrator

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/appaware"
)

// TestAPIHeartbeatCarriesAdmissions: the heartbeat response is the
// control plane's downlink — verdicts set on the root ride back to the
// node, and clearing them empties the response.
func TestAPIHeartbeatCarriesAdmissions(t *testing.T) {
	srv, api := apiFixture(t)
	api.root.RegisterNode(testbedNodes()[0], time.Unix(0, 0))

	var resp HeartbeatResponse
	code := doJSON(t, "POST", srv.URL+"/api/v1/nodes/E1/heartbeat", NodeStatus{}, &resp)
	if code != http.StatusOK {
		t.Fatalf("heartbeat code = %d", code)
	}
	if len(resp.Admissions) != 0 {
		t.Fatalf("admissions before any verdict: %+v", resp.Admissions)
	}

	api.root.SetAdmissions([]ServiceAdmission{
		{Service: "sift", State: "degrade", Reason: "replica cap reached"},
	})
	resp = HeartbeatResponse{}
	doJSON(t, "POST", srv.URL+"/api/v1/nodes/E1/heartbeat", NodeStatus{}, &resp)
	if len(resp.Admissions) != 1 || resp.Admissions[0].Service != "sift" ||
		resp.Admissions[0].State != "degrade" {
		t.Fatalf("admissions = %+v", resp.Admissions)
	}

	api.root.SetAdmissions(nil)
	resp = HeartbeatResponse{}
	doJSON(t, "POST", srv.URL+"/api/v1/nodes/E1/heartbeat", NodeStatus{}, &resp)
	if len(resp.Admissions) != 0 {
		t.Fatalf("admissions after clear: %+v", resp.Admissions)
	}
}

// TestClientAdmissionHandler: the node-agent client surfaces the downlink
// through SetAdmissionHandler on every successful beat — including the
// empty list that resets enforcement.
func TestClientAdmissionHandler(t *testing.T) {
	srv, api := apiFixture(t)
	api.root.RegisterNode(testbedNodes()[0], time.Unix(0, 0))
	api.root.SetAdmissions([]ServiceAdmission{{Service: "lsh", State: "reject"}})

	c := NewClient(srv.URL, time.Second)
	got := make(chan []ServiceAdmission, 8)
	c.SetAdmissionHandler(func(adm []ServiceAdmission) { got <- adm })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := c.StartHeartbeats(ctx, NodeInfo{
		Name: "n-agent", Cluster: "edge", CPUCores: 4, MemBytes: 1 << 30,
	}, 10*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case adm := <-got:
		if len(adm) != 1 || adm[0].Service != "lsh" || adm[0].State != "reject" {
			t.Fatalf("handler got %+v", adm)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("admission handler never called")
	}
	// Clearing the verdicts must reach the handler as an empty list.
	api.root.SetAdmissions(nil)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case adm := <-got:
			if len(adm) == 0 {
				return
			}
		case <-deadline:
			t.Fatal("cleared verdict set never delivered")
		}
	}
}

// TestClientHeartbeatTolerates204: an older server replying 204 with an
// empty body must read as "everything admitted", not a decode error.
func TestClientHeartbeatTolerates204(t *testing.T) {
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer old.Close()
	c := NewClient(old.URL, time.Second)
	resp, err := c.Heartbeat(context.Background(), "n1", NodeStatus{})
	if err != nil {
		t.Fatalf("204 heartbeat err = %v", err)
	}
	if len(resp.Admissions) != 0 {
		t.Fatalf("admissions = %+v", resp.Admissions)
	}
}

// TestAPIAutoscalerEndpoint: /api/v1/autoscaler is 404 without a control
// loop and serves the digest (plus scatter_autoscale_* on /metrics) with
// one attached.
func TestAPIAutoscalerEndpoint(t *testing.T) {
	srv, api := apiFixture(t)
	for _, n := range testbedNodes() {
		api.root.RegisterNode(n, time.Unix(0, 0))
	}
	if code := doJSON(t, "GET", srv.URL+"/api/v1/autoscaler", nil, nil); code != http.StatusNotFound {
		t.Fatalf("autoscaler without loop code = %d", code)
	}
	if _, err := api.root.Deploy(scatterSLA()); err != nil {
		t.Fatal(err)
	}
	a := NewAutoscaler(api.root, appaware.LoopConfig{Policy: appaware.QoSPolicy{}}, AutoscalerConfig{App: "scatter"})
	api.SetAutoscaler(a)

	t0 := time.Unix(100, 0)
	api.root.Heartbeat("E1", NodeStatus{LastHeartbeat: t0, Services: []ServiceTelemetry{
		{Service: "sift", Arrived: 1000, Dropped: 0},
	}})
	a.Tick(t0)
	t1 := t0.Add(2 * time.Second)
	api.root.Heartbeat("E1", NodeStatus{LastHeartbeat: t1, Services: []ServiceTelemetry{
		{Service: "sift", Arrived: 1300, Dropped: 150},
	}})
	a.Tick(t1)

	var out struct {
		Policy   string `json:"policy"`
		ScaleUps uint64 `json:"scale_ups"`
		Events   []struct {
			At      time.Time `json:"at"`
			Service string    `json:"service"`
			Verb    string    `json:"verb"`
		} `json:"events"`
	}
	if code := doJSON(t, "GET", srv.URL+"/api/v1/autoscaler", nil, &out); code != http.StatusOK {
		t.Fatalf("autoscaler code = %d", code)
	}
	if out.Policy != "qos" || out.ScaleUps != 1 || len(out.Events) != 1 {
		t.Fatalf("autoscaler payload = %+v", out)
	}
	// Events keep their wire keys and wall-clock stamps.
	if ev := out.Events[0]; !ev.At.Equal(t1) || ev.Service != "sift" || ev.Verb != "scale-up" {
		t.Errorf("event = %+v, want sift scale-up at %v", ev, t1)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`scatter_autoscale_scale_ups_total{policy="qos"} 1`,
		// The digest is the signal the loop last decided on — captured
		// before the scale-up it triggered.
		`scatter_autoscale_replicas{service="sift"} 1`,
		`scatter_autoscale_drop_ratio{service="sift"} 0.5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
