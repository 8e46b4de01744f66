package orchestrator

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func clientFixture(t *testing.T) (*Client, *Root) {
	t.Helper()
	root := NewRoot()
	srv := httptest.NewServer(NewAPIServer(root).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL, time.Second), root
}

func TestClientRegisterAndNodes(t *testing.T) {
	c, _ := clientFixture(t)
	ctx := context.Background()
	for _, n := range testbedNodes() {
		if err := c.Register(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	var nodes []NodeInfo
	if err := c.do(ctx, http.MethodGet, "/api/v1/nodes", nil, &nodes); err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 {
		t.Errorf("nodes = %d", len(nodes))
	}
	// Duplicate registration surfaces the server error.
	err := c.Register(ctx, testbedNodes()[0])
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestClientDeployLifecycle(t *testing.T) {
	c, _ := clientFixture(t)
	ctx := context.Background()
	for _, n := range testbedNodes() {
		if err := c.Register(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	var d Deployment
	if err := c.do(ctx, http.MethodPost, "/api/v1/apps", scatterSLA(), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Instances) != 5 {
		t.Errorf("instances = %d", len(d.Instances))
	}
	var got Deployment
	if err := c.do(ctx, http.MethodGet, "/api/v1/apps/scatter", nil, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Instances) != 5 {
		t.Errorf("fetched = %d", len(got.Instances))
	}
	if err := c.do(ctx, http.MethodDelete, "/api/v1/apps/scatter", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.do(ctx, http.MethodGet, "/api/v1/apps/scatter", nil, &got); err == nil {
		t.Error("deployment survives undeploy")
	}
}

func TestClientHeartbeatLoop(t *testing.T) {
	c, root := clientFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var beats atomic.Int32
	err := c.StartHeartbeats(ctx, testbedNodes()[0], 20*time.Millisecond,
		func() NodeStatus {
			beats.Add(1)
			return NodeStatus{CPUUtil: 0.1}
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for beats.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d beats", beats.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st, err := root.Status("E1")
	if err != nil {
		t.Fatal(err)
	}
	if st.CPUUtil != 0.1 {
		t.Errorf("status = %+v", st)
	}
	cancel()
}

func TestClientConnectionError(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", 200*time.Millisecond)
	if err := c.Register(context.Background(), testbedNodes()[0]); err == nil {
		t.Error("call to closed port succeeded")
	}
}

func TestClientHeartbeatErrors(t *testing.T) {
	c, _ := clientFixture(t)
	ctx := context.Background()
	// Heartbeating an unregistered node surfaces 404.
	_, err := c.Heartbeat(ctx, "ghost", NodeStatus{})
	if err == nil || !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "unknown") {
		t.Errorf("err = %v", err)
	}
}
