package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseConfigAcceptsDeployFiles parses every shipped deployment.
func TestParseConfigAcceptsDeployFiles(t *testing.T) {
	paths, err := filepath.Glob("../../deploy/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no deploy/*.json files found")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := parseConfig(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if len(cfg.Services) == 0 {
			t.Errorf("%s: parsed to a config with no services", path)
		}
	}
}

// TestParseConfigRejectsUnknownKeys covers the removed batching,
// recognition-cache, sharding and lsh pre-ranking keys, a typo inside a
// nested block, and trailing data: each must fail at parse with the
// offending key named.
func TestParseConfigRejectsUnknownKeys(t *testing.T) {
	for _, tc := range []struct{ doc, want string }{
		{`{"mode": "scatter++", "batch_max": 4}`, "batch_max"},
		{`{"mode": "scatter++", "recognition_cache": {"enabled": true}}`, "recognition_cache"},
		{`{"mode": "scatter++", "sharding": {"enabled": true, "shards": 4}}`, "sharding"},
		{`{"mode": "scatter++", "lsh": {"pre_rank": 4}}`, "lsh"},
		{`{"route_stats": {"enabeld": true}}`, "enabeld"},
		{`{"mode": "scatter"} {"mode": "scatter++"}`, "trailing"},
	} {
		_, err := parseConfig([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.doc)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.doc, err, tc.want)
		}
	}
}
