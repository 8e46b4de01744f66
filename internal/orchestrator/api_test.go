package orchestrator

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func apiFixture(t *testing.T) (*httptest.Server, *APIServer) {
	t.Helper()
	api := NewAPIServer(NewRoot())
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return srv, api
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestAPIRegisterAndList(t *testing.T) {
	srv, _ := apiFixture(t)
	for _, n := range testbedNodes() {
		if code := doJSON(t, "POST", srv.URL+"/api/v1/nodes", n, nil); code != http.StatusCreated {
			t.Fatalf("register %s: %d", n.Name, code)
		}
	}
	// Duplicate registration conflicts.
	if code := doJSON(t, "POST", srv.URL+"/api/v1/nodes", testbedNodes()[0], nil); code != http.StatusConflict {
		t.Errorf("duplicate register code = %d", code)
	}
	var nodes []NodeInfo
	if code := doJSON(t, "GET", srv.URL+"/api/v1/nodes", nil, &nodes); code != http.StatusOK {
		t.Fatalf("list code = %d", code)
	}
	if len(nodes) != 3 {
		t.Errorf("nodes = %d", len(nodes))
	}
	// Invalid node rejected.
	if code := doJSON(t, "POST", srv.URL+"/api/v1/nodes", NodeInfo{}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid register code = %d", code)
	}
}

func TestAPIDeployLifecycle(t *testing.T) {
	srv, _ := apiFixture(t)
	for _, n := range testbedNodes() {
		doJSON(t, "POST", srv.URL+"/api/v1/nodes", n, nil)
	}
	var dep Deployment
	if code := doJSON(t, "POST", srv.URL+"/api/v1/apps", scatterSLA(), &dep); code != http.StatusCreated {
		t.Fatalf("deploy code = %d", code)
	}
	if len(dep.Instances) != 5 {
		t.Errorf("instances = %d", len(dep.Instances))
	}
	var dep2 Deployment
	if code := doJSON(t, "GET", srv.URL+"/api/v1/apps/scatter", nil, &dep2); code != http.StatusOK {
		t.Fatalf("get deployment code = %d", code)
	}
	if len(dep2.Instances) != 5 {
		t.Errorf("fetched instances = %d", len(dep2.Instances))
	}
	// Duplicate deploy conflicts.
	if code := doJSON(t, "POST", srv.URL+"/api/v1/apps", scatterSLA(), nil); code != http.StatusConflict {
		t.Errorf("duplicate deploy code = %d", code)
	}
	if code := doJSON(t, "DELETE", srv.URL+"/api/v1/apps/scatter", nil, nil); code != http.StatusNoContent {
		t.Errorf("undeploy code = %d", code)
	}
	if code := doJSON(t, "GET", srv.URL+"/api/v1/apps/scatter", nil, nil); code != http.StatusNotFound {
		t.Errorf("get after undeploy code = %d", code)
	}
}

func TestAPIUnschedulable(t *testing.T) {
	srv, _ := apiFixture(t)
	doJSON(t, "POST", srv.URL+"/api/v1/nodes", testbedNodes()[0], nil)
	sla := SLA{AppName: "x", Microservices: []ServiceSLA{{
		Name: "svc", Image: "i", Replicas: 1,
		Requirements: Requirements{NeedsGPU: true, GPUArchIn: []string{"hopper"}},
	}}}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/apps", sla, nil); code != http.StatusUnprocessableEntity {
		t.Errorf("unschedulable code = %d", code)
	}
}

func TestAPIHeartbeatAndStatus(t *testing.T) {
	srv, _ := apiFixture(t)
	doJSON(t, "POST", srv.URL+"/api/v1/nodes", testbedNodes()[0], nil)
	st := NodeStatus{CPUUtil: 0.5, GPUUtil: 0.25, MemUsed: 42}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/nodes/E1/heartbeat", st, nil); code != http.StatusOK {
		t.Fatalf("heartbeat code = %d", code)
	}
	var got NodeStatus
	if code := doJSON(t, "GET", srv.URL+"/api/v1/nodes/E1/status", nil, &got); code != http.StatusOK {
		t.Fatalf("status code = %d", code)
	}
	if got.CPUUtil != 0.5 || got.MemUsed != 42 {
		t.Errorf("status = %+v", got)
	}
	if got.LastHeartbeat.IsZero() {
		t.Error("heartbeat time not defaulted")
	}
	if code := doJSON(t, "POST", srv.URL+"/api/v1/nodes/ghost/heartbeat", st, nil); code != http.StatusNotFound {
		t.Errorf("unknown node heartbeat code = %d", code)
	}
}

func TestAPIDetectFailures(t *testing.T) {
	root := NewRoot(WithHeartbeatTimeout(time.Second))
	api := NewAPIServer(root)
	base := time.Unix(1000, 0)
	api.now = func() time.Time { return base }
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	for _, n := range testbedNodes() {
		doJSON(t, "POST", srv.URL+"/api/v1/nodes", n, nil)
	}
	doJSON(t, "POST", srv.URL+"/api/v1/apps", scatterSLA(), nil)
	// Advance time so every node looks dead except those that heartbeat.
	api.now = func() time.Time { return base.Add(10 * time.Second) }
	hb := NodeStatus{LastHeartbeat: base.Add(10 * time.Second)}
	doJSON(t, "POST", srv.URL+"/api/v1/nodes/E2/heartbeat", hb, nil)
	doJSON(t, "POST", srv.URL+"/api/v1/nodes/cloud/heartbeat", hb, nil)

	var migrated []Instance
	if code := doJSON(t, "POST", srv.URL+"/api/v1/failures/detect", nil, &migrated); code != http.StatusOK {
		t.Fatalf("detect code = %d", code)
	}
	for _, inst := range migrated {
		if inst.Node == "E1" {
			t.Errorf("instance %s still on dead node", inst.Key())
		}
	}
}

func TestAPIRejectsUnknownFields(t *testing.T) {
	srv, _ := apiFixture(t)
	req, _ := http.NewRequest("POST", srv.URL+"/api/v1/nodes",
		bytes.NewBufferString(`{"name":"x","cluster":"c","cpu_cores":1,"mem_bytes":1,"bogus":true}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field code = %d", resp.StatusCode)
	}

	// The removed shard keys of an SLA fail the deploy with the key named.
	for _, key := range []string{"shards", "shard_replication"} {
		doc := `{"app_name":"app","microservices":[{"microservice_name":"lsh","image":"x","replicas":2,"` +
			key + `":2,"requirements":{}}]}`
		resp, err := http.Post(srv.URL+"/api/v1/apps", "application/json", bytes.NewBufferString(doc))
		if err != nil {
			t.Fatal(err)
		}
		var body apiError
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", key, resp.StatusCode)
		}
		if !strings.Contains(body.Error, `"`+key+`"`) {
			t.Errorf("%s: error %q does not name the key", key, body.Error)
		}
	}
}
