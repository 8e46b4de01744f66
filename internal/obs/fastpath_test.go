package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestFastPathExposition(t *testing.T) {
	reg := testRegistry()
	if _, ok := reg.FastPathDigest(); ok {
		t.Fatal("digest reported ok before a source was installed")
	}
	reg.SetFastPathSource(func() FastPathDigest {
		return FastPathDigest{Skips: 90, Fulls: 10, Clients: 4}
	})
	srv := httptest.NewServer(Handler(reg, nil))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"scatter_fastpath_skips_total 90",
		"scatter_fastpath_fulls_total 10",
		"scatter_fastpath_clients 4",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, srv, "/metrics.json")
	if code != 200 {
		t.Fatalf("metrics.json status %d", code)
	}
	var snap struct {
		FastPath *FastPathDigest `json:"fastpath"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.FastPath == nil || snap.FastPath.Skips != 90 || snap.FastPath.Clients != 4 {
		t.Errorf("metrics.json fastpath = %+v", snap.FastPath)
	}
}

func TestFastPathExpositionAbsentWithoutSource(t *testing.T) {
	srv := httptest.NewServer(Handler(testRegistry(), nil))
	defer srv.Close()
	_, body := get(t, srv, "/metrics")
	if strings.Contains(body, "scatter_fastpath") {
		t.Error("fast-path series exposed without a source")
	}
	_, body = get(t, srv, "/metrics.json")
	if strings.Contains(body, "fastpath") {
		t.Error("metrics.json carries fastpath without a source")
	}
}
