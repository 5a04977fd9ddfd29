package orchestra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestProtocolIsALeaf keeps the program a participant links small: the
// client speaks internal/wire and links nothing of the engine, the store or
// the server, and no package it links registers pprof or expvar handlers
// on http.DefaultServeMux. The protocol itself imports only the batch
// layout, the byte reader and the metrics vocabulary, and no storage
// package imports the protocol, so a stats snapshot a response carries is
// declared in obs and filled by its producer.
func TestProtocolIsALeaf(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %v: %v", args, err)
		}
		return strings.Fields(string(out))
	}
	var internal []string
	for _, p := range goList("-deps", "./client") {
		if p == "net/http/pprof" || p == "expvar" {
			t.Errorf("orchestra/client links %s, which registers handlers on http.DefaultServeMux", p)
		}
		if name, ok := strings.CutPrefix(p, "orchestra/internal/"); ok {
			internal = append(internal, name)
		}
	}
	slices.Sort(internal)
	if want := []string{"codec", "keyspace", "obs", "tuple", "wire"}; !slices.Equal(internal, want) {
		t.Errorf("orchestra/client links internal packages %v, want %v", internal, want)
	}

	for _, p := range goList("-f", "{{join .Imports \"\\n\"}}", "./internal/wire") {
		if name, ok := strings.CutPrefix(p, "orchestra/"); ok && name != "internal/tuple" && name != "internal/codec" && name != "internal/obs" {
			t.Errorf("internal/wire imports %s; the protocol may import only tuple, codec and obs", p)
		}
	}
	for _, line := range goList("-f", "{{.ImportPath}}:{{join .Deps \",\"}}",
		"./internal/kvstore", "./internal/vstore", "./internal/cluster", "./internal/engine", "./internal/wal") {
		pkg, deps, _ := strings.Cut(line, ":")
		if slices.Contains(strings.Split(deps, ","), "orchestra/internal/wire") {
			t.Errorf("%s links internal/wire; a storage package fills obs types, never protocol ones", pkg)
		}
	}
}

// testOnlyHarness lists the exported declarations under internal/ that exist
// for other packages' tests, each with its reason: a harness a test in
// another package drives cannot move into its own package's export_test.go.
var testOnlyHarness = map[string]string{
	"wal.NewFaultFS":     "the failpoint file system the kvstore crash tests open a store over",
	"wal.FaultFS.FailAt": "arms the crash at one durability step for the kvstore crash tests",
	"wal.FaultFS.Steps":  "counts a disarmed run's durability steps, the bound of the kvstore crash tests' sweep",
}

// stdInterfaceMethods are methods the standard library calls through an
// interface it declares (error, fmt.Stringer, sort and heap, io, json,
// http.Handler), so an implementation is live with no call in this
// repository.
var stdInterfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// TestNoTestOnlyExports fails on an exported function or method declared in
// a non-test file under internal/ that no non-test file of the repository
// names: code whose only callers are tests is either deleted, moved into its
// package's export_test.go, or unexported with its test kept. References
// from benchmark/, cmd/ and examples/ count. A use inside a declaration of
// the same name in the same package — a recursive call, or one Eval calling
// another — does not; one from another package's declaration of that name
// does (the root Cluster.AddNode calls cluster.Local.AddNode). A method
// that satisfies an interface declared here is live only where something
// calls that method, so an interface method no production code calls fails
// with every implementation of it. Methods the standard library calls
// through its own interfaces are exempt (stdInterfaceMethods), and so are
// the harnesses in testOnlyHarness.
//
// The check matches by name, not by type: two types' methods of one name
// look alike, so one live Merge keeps every Merge. It errs towards passing.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, name, dir, pos string
		method              bool
	}
	var decls []decl
	refs := map[string]bool{}
	sameName := map[string][]string{} // name -> directories of same-named declarations using it
	ref := func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			refs[id.Name] = true
		}
		return true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg, underInternal := strings.CutPrefix(dir, "internal/")
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, func(n ast.Node) bool {
					if it, ok := n.(*ast.InterfaceType); ok {
						// A method an interface declares is no use of its
						// name: it is live where something calls it.
						for _, m := range it.Methods.List {
							ast.Inspect(m.Type, ref)
						}
						return false
					}
					return ref(n)
				})
				continue
			}
			if underInternal && fn.Name.IsExported() {
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, decl{key, fn.Name.Name, dir, fset.Position(fn.Pos()).String(), fn.Recv != nil})
			}
			// Every name in the declaration but its own is a reference. A use
			// of its own name inside it counts only for other packages.
			ast.Inspect(fn, func(n ast.Node) bool {
				switch id, _ := n.(*ast.Ident); {
				case id == nil || id == fn.Name:
				case id.Name == fn.Name.Name:
					sameName[id.Name] = append(sameName[id.Name], dir)
				default:
					refs[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		live := refs[d.name] ||
			slices.ContainsFunc(sameName[d.name], func(dir string) bool { return dir != d.dir }) ||
			d.method && stdInterfaceMethods[d.name]
		switch _, harness := testOnlyHarness[d.key]; {
		case live && harness:
			t.Errorf("%s: %s has a caller outside tests now: drop it from testOnlyHarness", d.pos, d.key)
		case !live && !harness:
			t.Errorf("%s: %s has no caller outside tests: delete it, move it to export_test.go, or unexport it", d.pos, d.key)
		}
	}
	for key := range testOnlyHarness {
		if !declared[key] {
			t.Errorf("testOnlyHarness names %s, which no file under internal/ declares", key)
		}
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
