package orchestra

import (
	"os/exec"
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
