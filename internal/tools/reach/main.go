// Command reach lists the functions of a Go module that no binary of the
// module links.
//
// It builds every main package of the module with inlining off, reads each
// binary's text symbols with `go tool nm`, and walks every non-test function
// declaration. A declaration that no binary holds a symbol for is printed with
// its position and line count. Entries in the allowlist, each with a reason,
// are not printed; an allowlist entry that matches nothing reached or
// unreached is printed as stale. It prints nothing and exits 0 when there is
// nothing to report, and exits 1 otherwise.
//
// Run it from the module root, where it reads
// internal/tools/reach/allowlist.txt:
//
//	go run ./internal/tools/reach
//
// A method that satisfies an interface some binary calls through is linked
// even if nothing calls it, so the list is a lower bound on dead code.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	report, err := run(".", "internal/tools/reach/allowlist.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	if len(report) > 0 {
		for _, l := range report {
			fmt.Println(l)
		}
		os.Exit(1)
	}
}

// pkg is one package of the module: its import path, its directory, and
// whether it is a main package.
type pkg struct {
	path, dir string
	main      bool
}

// decl is one function declaration found in the source.
type decl struct {
	key   string // import path, receiver base type if any, name, dot-joined
	file  string // relative to the module root, slash-separated
	line  int
	lines int
}

// run returns the report lines for the module at dir: unreached functions
// outside the allowlist, then stale allowlist entries.
func run(dir, allowPath string) ([]string, error) {
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return nil, err
	}
	mod, err := goCmd(dir, "list", "-m", "-f", "{{.Path}}")
	if err != nil {
		return nil, err
	}
	allow.module = strings.TrimSpace(string(mod))
	pkgs, err := listPackages(dir)
	if err != nil {
		return nil, err
	}
	reached, err := linkedSymbols(dir, pkgs)
	if err != nil {
		return nil, err
	}
	decls, err := declarations(dir, pkgs)
	if err != nil {
		return nil, err
	}

	used := make(map[string]bool)
	var report []string
	for _, d := range decls {
		entry, ok := allow.match(d)
		if ok {
			used[entry] = true
		}
		if reached[d.key] || ok {
			continue
		}
		report = append(report, fmt.Sprintf("%s:%d: %s (%d lines)", d.file, d.line, d.key, d.lines))
	}
	for _, e := range allow.order {
		if !used[e] {
			report = append(report, fmt.Sprintf("%s: stale allowlist entry %q matches no function", allowPath, e))
		}
	}
	return report, nil
}

// allowlist holds entries of two kinds: a module-relative file path, which
// covers every function in that file, and a function key relative to the
// module path (e.g. "internal/transport.FaultyEndpoint.Partition").
type allowlist struct {
	module string
	order  []string
	set    map[string]bool
}

func (a allowlist) match(d decl) (string, bool) {
	if a.set[d.file] {
		return d.file, true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(d.key, a.module), "/")
	if a.set[rel] {
		return rel, true
	}
	return "", false
}

// readAllowlist parses lines of the form "entry  # reason". Blank lines and
// lines starting with # are skipped. An entry without a reason is an error.
func readAllowlist(path string) (allowlist, error) {
	a := allowlist{set: make(map[string]bool)}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return a, nil
	}
	if err != nil {
		return a, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, "#")
		entry, reason = strings.TrimSpace(entry), strings.TrimSpace(reason)
		if reason == "" {
			return a, fmt.Errorf("%s:%d: entry %q has no reason", path, n, entry)
		}
		a.order = append(a.order, entry)
		a.set[entry] = true
	}
	return a, sc.Err()
}

// listPackages lists the module's packages with `go list`.
func listPackages(dir string) ([]pkg, error) {
	out, err := goCmd(dir, "list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{.Name}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for _, l := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(l, "\t")
		if len(f) != 3 {
			return nil, fmt.Errorf("go list: unexpected line %q", l)
		}
		pkgs = append(pkgs, pkg{path: f[0], dir: f[1], main: f[2] == "main"})
	}
	return pkgs, nil
}

// linkedSymbols builds every main package without inlining and returns the
// keys of every module function any of the binaries links.
func linkedSymbols(dir string, pkgs []pkg) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	reached := make(map[string]bool)
	for i, p := range pkgs {
		if !p.main {
			continue
		}
		bin := filepath.Join(tmp, fmt.Sprintf("bin%d", i))
		if _, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", bin, p.path); err != nil {
			return nil, err
		}
		out, err := goCmd(dir, "tool", "nm", bin)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 2 || (f[len(f)-2] != "T" && f[len(f)-2] != "t") {
				continue
			}
			name := f[len(f)-1]
			// A binary names its own main package "main".
			if strings.HasPrefix(name, "main.") {
				name = p.path + name[len("main"):]
			}
			if key, ok := symbolKey(name); ok {
				reached[key] = true
			}
		}
	}
	return reached, nil
}

var (
	// closure matches the suffixes the compiler gives closures, go and
	// defer wrappers and their nesting: ".func1", ".gowrap2", ".func1.3".
	closure = regexp.MustCompile(`\.(func|gowrap|deferwrap)\d+(\.\d+)*$`)
	// wrapper matches the suffixes of method value wrappers ("-fm") and of
	// assembly functions' ABI names (".abi0").
	wrapper = regexp.MustCompile(`(-fm|\.abi0)$`)
)

// symbolKey reduces a linker symbol to the key of the declaration it was
// compiled from: type arguments ("[go.shape.uint64]"), pointer receivers,
// closure, wrapper and ABI suffixes are removed. Symbols that no declaration
// produces (type equality functions, package initialisers) still map to
// some key; they simply match nothing.
func symbolKey(sym string) (string, bool) {
	sym = stripBrackets(sym)
	sym = wrapper.ReplaceAllString(sym, "")
	for closure.MatchString(sym) {
		sym = closure.ReplaceAllString(sym, "")
	}
	sym = strings.NewReplacer("(*", "", ")", "").Replace(sym)
	slash := strings.LastIndex(sym, "/")
	if !strings.Contains(sym[slash+1:], ".") {
		return "", false
	}
	return sym, true
}

// stripBrackets removes every bracketed segment, nested brackets included.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declarations walks every non-test Go file of every package directory,
// whatever its build constraints, and returns its function declarations
// except init and main.main, sorted by position.
func declarations(dir string, pkgs []pkg) ([]decl, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []decl
	for _, p := range pkgs {
		files, err := filepath.Glob(filepath.Join(p.dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, fn := range files {
			if strings.HasSuffix(fn, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, fn, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, fn)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || (p.main && fd.Recv == nil && fd.Name.Name == "main") {
					continue
				}
				key := p.path + "." + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					key = p.path + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
				decls = append(decls, decl{
					key:   key,
					file:  filepath.ToSlash(rel),
					line:  start.Line,
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	sort.Slice(decls, func(i, j int) bool {
		if decls[i].file != decls[j].file {
			return decls[i].file < decls[j].file
		}
		return decls[i].line < decls[j].line
	})
	return decls, nil
}

// receiverName returns the base type name of a receiver: T for T, *T, T[K]
// and *T[K, V].
func receiverName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// goCmd runs the go command in dir and returns its standard output; on
// failure the error carries its standard error.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
