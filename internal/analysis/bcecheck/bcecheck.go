// Package bcecheck holds the innermost loops of named hot kernels to zero
// compiler bounds checks. It compiles the package under test with the gc
// compiler's check_bce debug flag, which reports every IsInBounds and
// IsSliceInBounds check the prove pass could not discharge, and maps each
// reported position onto the innermost for/range loops of the named
// functions (closures inside them included). Checks outside those loops —
// the per-row slice expressions that keep an out-of-range row panicking —
// are allowed.
//
// It is a test helper: a package's TestHotLoopsBoundsCheckFree calls
// Check from the package directory, so it runs under `go test ./...`. It
// skips only when no go toolchain is on PATH.
package bcecheck

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// finding is one bounds check the compiler left in place.
type finding struct {
	file      string // base name
	line, col int
	kind      string // IsInBounds or IsSliceInBounds
}

var bceLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found (IsInBounds|IsSliceInBounds)$`)

// Check compiles the package in the current directory and fails t with
// the position of every bounds check left inside an innermost loop of one
// of the hot functions (methods are named without their receiver). Every
// name must declare at least one loop, so a renamed kernel cannot drop
// out of the check unnoticed.
func Check(t testing.TB, hot ...string) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	list, err := run(goBin, "list", "-f", "{{.ImportPath}}\n{{range .GoFiles}}{{.}}\n{{end}}", ".")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(list)
	if len(fields) < 2 {
		t.Fatalf("go list: unexpected output %q", list)
	}
	importPath, files := fields[0], fields[1:]
	out, err := run(goBin, "build", "-gcflags="+importPath+"=-d=ssa/check_bce/debug=1", ".")
	if err != nil {
		t.Fatal(err)
	}
	loops, err := innermostLoops(files, hot)
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[finding]bool{}
	for _, line := range strings.Split(out, "\n") {
		m := bceLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		f := finding{file: filepath.Base(m[1]), line: ln, col: col, kind: m[4]}
		if seen[f] {
			continue // one report per compiled copy of an inlined body
		}
		seen[f] = true
		if fn := loops.enclosing(f); fn != "" {
			bad = append(bad, fmt.Sprintf("%s:%d:%d: %s in a loop of %s", f.file, f.line, f.col, f.kind, fn))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d bounds checks left in hot loops of %s:\n%s", len(bad), importPath, strings.Join(bad, "\n"))
	}
}

func run(goBin string, args ...string) (string, error) {
	cmd := exec.Command(goBin, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String(), nil
}

// span is the source extent of one innermost loop.
type span struct {
	file       string
	start, end token.Position
	fn         string
}

type loopSet []span

// enclosing returns the hot function whose innermost loop contains f, or
// "" when f lies outside every such loop.
func (ls loopSet) enclosing(f finding) string {
	for _, s := range ls {
		if s.file != f.file {
			continue
		}
		after := f.line > s.start.Line || f.line == s.start.Line && f.col >= s.start.Column
		before := f.line < s.end.Line || f.line == s.end.Line && f.col < s.end.Column
		if after && before {
			return s.fn
		}
	}
	return ""
}

// innermostLoops parses files and returns the innermost loops of the hot
// functions, failing if a hot name is not declared or declares no loop.
func innermostLoops(files, hot []string) (loopSet, error) {
	want := map[string]int{}
	for _, h := range hot {
		want[h] = 0
	}
	fset := token.NewFileSet()
	var loops loopSet
	for _, name := range files {
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := want[fd.Name.Name]; !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if isLoop(n) && !containsLoop(n) {
					loops = append(loops, span{
						file:  filepath.Base(name),
						start: fset.Position(n.Pos()),
						end:   fset.Position(n.End()),
						fn:    fd.Name.Name,
					})
					want[fd.Name.Name]++
				}
				return true
			})
		}
	}
	var missing []string
	for h, n := range want {
		if n == 0 {
			missing = append(missing, h)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("hot functions not declared or without loops: %s", strings.Join(missing, ", "))
	}
	return loops, nil
}

func isLoop(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

// containsLoop reports whether loop n has another loop nested inside it.
func containsLoop(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if m != n && isLoop(m) {
			found = true
		}
		return !found
	})
	return found
}
