//go:build deadcode

// Package deadcode holds the dead-code gate: a test, built only with
// -tags deadcode (make deadcode), that fails on any non-test function in
// internal/... that no shipped binary links.
package deadcode

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "cosmodel"

// TestNoUnreachableFunctions builds every cmd/*, examples/* and bench
// binary, plus one program that links the root package's public API (see
// apiProgram), with inlining disabled so each function a binary calls
// keeps its own symbol. It reads the linked cosmodel/internal symbols with
// go tool nm and reports every function or method declared in a non-test
// file under internal/ that none of them links: the linker drops what
// nothing reaches, so an unlinked declaration is dead in production. Names
// listed in allowlist.txt (each with a reason) are exempt; an entry that
// names a linked or missing function is stale and fails the gate too.
func TestNoUnreachableFunctions(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bins := t.TempDir()
	build := func(dir string, args ...string) {
		t.Helper()
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v in %s: %v\n%s", args, dir, err, out)
		}
	}
	declared, err := declaredFuncs(root)
	if err != nil {
		t.Fatal(err)
	}
	api, err := apiProgram(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	build(root, "-o", bins+string(filepath.Separator), "./cmd/...", "./examples/...")
	build(filepath.Join(root, "bench"), "-o", filepath.Join(bins, "bench"), ".")
	build(api, "-o", filepath.Join(bins, "api"), ".")

	linked := map[string]bool{}
	entries, err := os.ReadDir(bins)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("built only %d binaries", len(entries))
	}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bins, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && f[1] == "T" && strings.HasPrefix(f[2], module+"/internal/") {
				linked[stripTypeArgs(f[2])] = true
			}
		}
	}

	allow, err := readAllowlist("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	decl := map[string]bool{}
	for _, name := range declared {
		decl[name] = true
		if !linked[name] && !allow[name] {
			t.Errorf("unreachable from every binary and the API: %s", name)
		}
	}
	var stale []string
	for name := range allow {
		if linked[name] || !decl[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("stale allowlist entry (linked or no longer declared): %s", name)
	}
}

// apiProgram writes, in its own module under dir, a main package that
// links the root package's public API: each exported function, variable
// and constant as a value, each exported type through a nil pointer, and —
// through reflect.Value.Method, which makes the linker keep every exported
// method of every type the program can reach — every method a library user
// can call on a value the API hands out. Library users reach internal/ only
// this way, so what neither this program nor a binary links is dead to
// them too. It returns the program's directory.
func apiProgram(root, dir string) (string, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), root, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return "", err
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						names = append(names, module+"."+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								names = append(names, "(*"+module+"."+sp.Name.Name+")(nil)")
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									names = append(names, module+"."+n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	src := "package main\n\nimport (\n\t\"reflect\"\n\n\t\"" + module + "\"\n)\n\n" +
		"var api = []any{\n\t" + strings.Join(names, ",\n\t") + ",\n}\n\n" +
		"func main() {\n\tfor _, x := range api {\n\t\tv := reflect.ValueOf(x)\n" +
		"\t\tfor i := 0; i < v.NumMethod(); i++ {\n\t\t\t_ = v.Method(i)\n\t\t}\n\t}\n}\n"
	mod := "module apiroot\n\ngo 1.22\n\nrequire " + module + " v0.0.0\n\nreplace " + module + " => " + root + "\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		return "", err
	}
	return dir, os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644)
}

// stripTypeArgs removes the bracketed type arguments of a generic
// function or method symbol, e.g. pkg.(*Ring[go.shape.*uint8]).Len ->
// pkg.(*Ring).Len, so instantiations match the generic declaration.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
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

// declaredFuncs lists the linker symbol name of every function and method
// declared in a non-test .go file under root/internal, except init.
func declaredFuncs(root string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			names = append(names, pkg+"."+receiver(fn)+fn.Name.Name)
		}
		return nil
	})
	return names, err
}

// receiver renders fn's receiver the way the linker names methods:
// "T." for a value receiver, "(*T)." for a pointer one, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		ptr, typ = true, star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// readAllowlist parses allowlist.txt: one symbol per line, relative to
// cosmodel/internal/, followed by its reason; blank lines and lines
// starting with # are ignored. An entry without a reason is an error.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: entry without a reason", path, n)
		}
		allow[module+"/internal/"+name] = true
	}
	return allow, sc.Err()
}
