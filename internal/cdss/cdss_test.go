package cdss

import (
	"context"
	"testing"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
)

type fixture struct {
	t     *testing.T
	local *cluster.Local
	engs  []*engine.Engine
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	local, err := cluster.NewLocal(n, cluster.Config{Replication: 3}, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(local.Shutdown)
	f := &fixture{t: t, local: local}
	for _, node := range local.Nodes() {
		f.engs = append(f.engs, engine.New(node))
	}
	return f
}

func (f *fixture) ctx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	f.t.Cleanup(cancel)
	return ctx
}

func (f *fixture) participant(name string, node int, prio int) *Participant {
	return NewParticipant(name, f.local.Node(node), f.engs[node], prio)
}

func geneSchema() *tuple.Schema {
	return tuple.MustSchema("genes",
		[]tuple.Column{
			{Name: "gene", Type: tuple.String},
			{Name: "function", Type: tuple.String},
		}, "gene")
}

func TestLocalUpdatesAndLog(t *testing.T) {
	f := newFixture(t, 3)
	alice := f.participant("alice", 0, 1)
	alice.DefineLocal(geneSchema())

	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(alice.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")}))
	must(alice.Apply("genes", OpInsert, tuple.Row{tuple.S("tp53"), tuple.S("suppressor")}))
	must(alice.Apply("genes", OpUpdate, tuple.Row{tuple.S("brca1"), tuple.S("dna repair")}))
	if alice.PendingUpdates() != 3 {
		t.Fatalf("log size %d", alice.PendingUpdates())
	}
	rows := alice.Rows("genes")
	if len(rows) != 2 {
		t.Fatalf("instance: %v", rows)
	}
	if rows[0][1].Str != "dna repair" {
		t.Fatalf("local update lost: %v", rows[0])
	}
	must(alice.Apply("genes", OpDelete, tuple.Row{tuple.S("tp53"), tuple.S("")}))
	if len(alice.Rows("genes")) != 1 {
		t.Fatal("delete did not apply")
	}
	if err := alice.Apply("nosuch", OpInsert, tuple.Row{}); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

func TestPublishAdvancesEpochAndClearsLog(t *testing.T) {
	f := newFixture(t, 3)
	alice := f.participant("alice", 0, 1)
	alice.DefineLocal(geneSchema())
	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")})

	e, err := alice.Publish(f.ctx())
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if e == 0 {
		t.Fatal("epoch did not advance")
	}
	if alice.PendingUpdates() != 0 {
		t.Fatal("log not cleared")
	}
	// The published relation is queryable cluster-wide.
	scan := &engine.Plan{Root: &engine.ScanNode{Relation: PublishedName("alice", "genes")}}
	res, err := f.engs[1].Run(f.ctx(), scan, engine.Options{Epoch: e})
	if err != nil {
		t.Fatalf("scan from another node: %v", err)
	}
	if res.Batch.N != 1 {
		t.Fatalf("published rows: %v", res.Batch.Rows())
	}
}

func TestImportViaMapping(t *testing.T) {
	f := newFixture(t, 4)
	alice := f.participant("alice", 0, 1)
	bob := f.participant("bob", 1, 1)
	alice.DefineLocal(geneSchema())
	bob.DefineLocal(geneSchema())

	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")})
	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("tp53"), tuple.S("suppressor")})
	if _, err := alice.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}

	// Bob imports everything Alice publishes, identity mapping.
	bob.AddMapping(Mapping{
		Peer:   "alice",
		Target: "genes",
		SQL:    "SELECT gene, function FROM alice_genes",
	})
	rep, err := bob.Import(f.ctx(), map[string]int{"alice": 1})
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if rep.Imported != 2 || len(rep.Conflicts) != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if len(bob.Rows("genes")) != 2 {
		t.Fatalf("bob's instance: %v", bob.Rows("genes"))
	}

	// Importing again is idempotent.
	rep2, err := bob.Import(f.ctx(), map[string]int{"alice": 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Imported != 0 {
		t.Fatalf("second import not idempotent: %+v", rep2)
	}
}

func TestImportWithSchemaMapping(t *testing.T) {
	// Carol's schema renames and projects: she keeps only gene names with
	// an annotation source column computed by the mapping.
	f := newFixture(t, 4)
	alice := f.participant("alice", 0, 1)
	carol := f.participant("carol", 2, 1)
	alice.DefineLocal(geneSchema())
	carol.DefineLocal(tuple.MustSchema("annotations",
		[]tuple.Column{
			{Name: "name", Type: tuple.String},
			{Name: "source", Type: tuple.String},
		}, "name"))

	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")})
	if _, err := alice.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}
	carol.AddMapping(Mapping{
		Peer:   "alice",
		Target: "annotations",
		SQL:    "SELECT gene, 'alice' || ':' || function AS source FROM alice_genes",
	})
	rep, err := carol.Import(f.ctx(), map[string]int{"alice": 1})
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if rep.Imported != 1 {
		t.Fatalf("report: %+v", rep)
	}
	rows := carol.Rows("annotations")
	if rows[0][1].Str != "alice:repair" {
		t.Fatalf("mapped row: %v", rows[0])
	}
}

func TestReconciliationPriorities(t *testing.T) {
	// Alice and Bob publish conflicting functions for the same gene; Dana
	// imports from both. Bob has higher priority, so his value wins, and
	// the conflict is reported.
	f := newFixture(t, 4)
	alice := f.participant("alice", 0, 1)
	bob := f.participant("bob", 1, 5)
	dana := f.participant("dana", 3, 0)
	alice.DefineLocal(geneSchema())
	bob.DefineLocal(geneSchema())
	dana.DefineLocal(geneSchema())

	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")})
	_ = bob.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("tumor suppression")})
	_ = bob.Apply("genes", OpInsert, tuple.Row{tuple.S("myc"), tuple.S("regulator")})
	if _, err := alice.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}

	dana.AddMapping(Mapping{Peer: "alice", Target: "genes",
		SQL: "SELECT gene, function FROM alice_genes"})
	dana.AddMapping(Mapping{Peer: "bob", Target: "genes",
		SQL: "SELECT gene, function FROM bob_genes"})

	prios := map[string]int{"alice": 1, "bob": 5}
	rep, err := dana.Import(f.ctx(), prios)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(rep.Conflicts) != 1 {
		t.Fatalf("conflicts: %+v", rep.Conflicts)
	}
	c := rep.Conflicts[0]
	if c.Winner.Peer != "bob" || len(c.Rejected) != 1 || c.Rejected[0].Peer != "alice" {
		t.Fatalf("resolution: %+v", c)
	}
	rows := dana.Rows("genes")
	if len(rows) != 2 {
		t.Fatalf("dana's instance: %v", rows)
	}
	for _, r := range rows {
		if r[0].Str == "brca1" && r[1].Str != "tumor suppression" {
			t.Fatalf("wrong winner installed: %v", r)
		}
	}
}

func TestReconciliationCorroboration(t *testing.T) {
	// Identical rows from two peers corroborate: no conflict reported.
	f := newFixture(t, 3)
	alice := f.participant("alice", 0, 1)
	bob := f.participant("bob", 1, 1)
	eve := f.participant("eve", 2, 0)
	for _, p := range []*Participant{alice, bob, eve} {
		p.DefineLocal(geneSchema())
	}
	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")})
	_ = bob.Apply("genes", OpInsert, tuple.Row{tuple.S("brca1"), tuple.S("repair")})
	if _, err := alice.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}
	eve.AddMapping(Mapping{Peer: "alice", Target: "genes", SQL: "SELECT gene, function FROM alice_genes"})
	eve.AddMapping(Mapping{Peer: "bob", Target: "genes", SQL: "SELECT gene, function FROM bob_genes"})
	rep, err := eve.Import(f.ctx(), map[string]int{"alice": 1, "bob": 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Conflicts) != 0 || rep.Imported != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestImportSnapshotIsolation(t *testing.T) {
	// An import pins the epoch at its start: data published afterwards is
	// not visible until the next import (§IV).
	f := newFixture(t, 3)
	alice := f.participant("alice", 0, 1)
	bob := f.participant("bob", 1, 1)
	alice.DefineLocal(geneSchema())
	bob.DefineLocal(geneSchema())

	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("g1"), tuple.S("f1")})
	if _, err := alice.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}
	bob.AddMapping(Mapping{Peer: "alice", Target: "genes", SQL: "SELECT gene, function FROM alice_genes"})
	if _, err := bob.Import(f.ctx(), map[string]int{"alice": 1}); err != nil {
		t.Fatal(err)
	}
	first := bob.LastSync()

	_ = alice.Apply("genes", OpInsert, tuple.Row{tuple.S("g2"), tuple.S("f2")})
	if _, err := alice.Publish(f.ctx()); err != nil {
		t.Fatal(err)
	}
	rep, err := bob.Import(f.ctx(), map[string]int{"alice": 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch <= first {
		t.Fatalf("epoch did not advance: %d then %d", first, rep.Epoch)
	}
	if len(bob.Rows("genes")) != 2 {
		t.Fatalf("bob's instance: %v", bob.Rows("genes"))
	}
}

func TestMappingErrors(t *testing.T) {
	f := newFixture(t, 2)
	p := f.participant("p", 0, 1)
	p.DefineLocal(geneSchema())
	p.AddMapping(Mapping{Peer: "x", Target: "genes", SQL: "SELECT FROM nothing"})
	if _, err := p.Import(f.ctx(), nil); err == nil {
		t.Fatal("bad mapping SQL accepted")
	}

	p2 := f.participant("p2", 1, 1)
	p2.DefineLocal(geneSchema())
	p2.AddMapping(Mapping{Peer: "x", Target: "missing", SQL: "SELECT gene, function FROM nosuch"})
	if _, err := p2.Import(f.ctx(), nil); err == nil {
		t.Fatal("mapping over unknown relation accepted")
	}
}
