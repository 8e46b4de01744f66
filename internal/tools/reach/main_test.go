package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// plantModule writes a two-package module: a binary that calls
// lib.Used, a generic method and a closure, and a library that also
// declares functions nothing calls.
func plantModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/planted\n\ngo 1.24\n",
		"cmd/app/main.go": `package main

import "example.com/planted/lib"

func main() {
	var p lib.Pool[int]
	p.Put(lib.Used())
	helper()
}

func helper() {}

func orphanInMain() {}
`,
		"lib/lib.go": `package lib

// Used is called by the binary.
func Used() int {
	f := func() int { return 1 }
	return f()
}

// Planted is called by nothing.
func Planted() int {
	return 2
}

// Pool is generic, so its methods link under shape-suffixed names.
type Pool[T any] struct{ items []T }

// Put is called by the binary.
func (p *Pool[T]) Put(v T) { p.items = append(p.items, v) }

// Drain is called by nothing.
func (p *Pool[T]) Drain() []T { return p.items }
`,
		"lib/lib_test.go": `package lib

func testOnly() {}
`,
	}
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func writeAllowlist(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "allowlist.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunListsPlantedFunctions(t *testing.T) {
	dir := plantModule(t)
	report, err := run(dir, filepath.Join(dir, "no-allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/app/main.go:13: example.com/planted/cmd/app.orphanInMain (1 lines)",
		"lib/lib.go:10: example.com/planted/lib.Planted (3 lines)",
		"lib/lib.go:21: example.com/planted/lib.Pool.Drain (1 lines)",
	}
	if !slices.Equal(report, want) {
		t.Errorf("report:\n%s\nwant:\n%s", strings.Join(report, "\n"), strings.Join(want, "\n"))
	}
}

func TestRunHonoursAllowlist(t *testing.T) {
	dir := plantModule(t)
	allow := writeAllowlist(t, `# header comment
lib.Planted  # kept for a reason
cmd/app/main.go  # the whole file
lib.Gone  # matches nothing
`)
	report, err := run(dir, allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) != 2 || !strings.Contains(report[0], "lib.Pool.Drain") ||
		!strings.Contains(report[1], `stale allowlist entry "lib.Gone"`) {
		t.Errorf("report:\n%s", strings.Join(report, "\n"))
	}
}

func TestAllowlistEntryNeedsReason(t *testing.T) {
	if _, err := readAllowlist(writeAllowlist(t, "lib.Planted\n")); err == nil {
		t.Error("entry without a reason accepted")
	}
}

func TestSymbolKey(t *testing.T) {
	for sym, want := range map[string]string{
		"example.com/m/lib.(*Pool[go.shape.int]).Put":      "example.com/m/lib.Pool.Put",
		"example.com/m/lib.Used.func1":                     "example.com/m/lib.Used",
		"example.com/m/lib.(*T).Run.gowrap2":               "example.com/m/lib.T.Run",
		"example.com/m/lib.(*T).Run.func1.3":               "example.com/m/lib.T.Run",
		"example.com/m/lib.(*T).Close-fm":                  "example.com/m/lib.T.Close",
		"example.com/m/simd.dot16AVX2.abi0":                "example.com/m/simd.dot16AVX2",
		"example.com/m/lib.Map[go.shape.struct { X int }]": "example.com/m/lib.Map",
	} {
		if got, ok := symbolKey(sym); !ok || got != want {
			t.Errorf("symbolKey(%q) = %q, %v; want %q", sym, got, ok, want)
		}
	}
}
