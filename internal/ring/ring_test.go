package ring

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"orchestra/internal/keyspace"
)

func nodeIDs(n int) []NodeID {
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("node%02d:900%d", i, i%10))
	}
	return ids
}

func mustNew(t testing.TB, n int, scheme Scheme, r int) *Table {
	t.Helper()
	tab, err := New(nodeIDs(n), scheme, r)
	if err != nil {
		t.Fatalf("New(%d, %v, %d): %v", n, scheme, r, err)
	}
	return tab
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Balanced, 3); err == nil {
		t.Error("empty membership should fail")
	}
	if _, err := New([]NodeID{"a", "a"}, Balanced, 3); err == nil {
		t.Error("duplicate members should fail")
	}
	if _, err := New([]NodeID{"a"}, Scheme(99), 3); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	for _, scheme := range []Scheme{Balanced, PastryStyle} {
		tab := mustNew(t, 1, scheme, 3)
		for i := 0; i < 50; i++ {
			k := keyspace.Hash([]byte(fmt.Sprintf("key%d", i)))
			if got := tab.Owner(k); got != nodeIDs(1)[0] {
				t.Fatalf("%v: owner(%s) = %s", scheme, k.Short(), got)
			}
		}
		if got := len(tab.Replicas(keyspace.Zero)); got != 1 {
			t.Errorf("%v: single node should have 1 replica, got %d", scheme, got)
		}
	}
}

func TestOwnershipPartition(t *testing.T) {
	// Every key has exactly one owner; the ranges reported by RangesOf
	// cover the ring disjointly.
	for _, scheme := range []Scheme{Balanced, PastryStyle} {
		for _, n := range []int{2, 3, 5, 16} {
			tab := mustNew(t, n, scheme, 3)
			covered := keyspace.Zero
			total := keyspace.Zero
			for _, id := range tab.Members() {
				for _, r := range tab.RangesOf(id) {
					total = total.Add(r.Size())
					_ = covered
				}
			}
			// Sum of all range sizes must be 2^160, i.e. 0 mod 2^160.
			if !total.IsZero() {
				t.Errorf("%v n=%d: ranges sum to %s, want full ring (0 mod 2^160)", scheme, n, total)
			}
			// Spot-check Owner agrees with RangesOf.
			for i := 0; i < 100; i++ {
				k := keyspace.Hash([]byte(fmt.Sprintf("k%d", i)))
				owner := tab.Owner(k)
				found := false
				for _, r := range tab.RangesOf(owner) {
					if r.Contains(k) {
						found = true
					}
				}
				if !found {
					t.Fatalf("%v n=%d: owner(%s)=%s but no owned range contains it", scheme, n, k.Short(), owner)
				}
			}
		}
	}
}

func TestBalancedIsUniform(t *testing.T) {
	for _, n := range []int{2, 5, 16, 100} {
		tab := mustNew(t, n, Balanced, 3)
		if b := tab.Balance(); b > 1.001 {
			t.Errorf("balanced n=%d: skew ratio %f, want ~1.0", n, b)
		}
	}
}

func TestPastryIsSkewedAtSmallN(t *testing.T) {
	// With a handful of nodes, hash positions are nonuniform with high
	// probability; the paper's Fig 2(a) example shows two nodes owning more
	// than 3/4 of the space. Just assert measurably worse than balanced.
	tab := mustNew(t, 5, PastryStyle, 3)
	if b := tab.Balance(); b < 1.2 {
		t.Errorf("pastry n=5: skew ratio %f suspiciously uniform", b)
	}
}

func TestBalancedOwnerMatchesDivideEvenly(t *testing.T) {
	n := 8
	tab := mustNew(t, n, Balanced, 3)
	starts, _ := keyspace.DivideEvenly(n)
	members := tab.Members() // hash order
	for i, s := range starts {
		if got := tab.Owner(s); got != members[i] {
			t.Errorf("owner(start[%d]) = %s, want %s", i, got, members[i])
		}
		// A key just below the next boundary belongs to the same node.
		var hi keyspace.Key
		if i+1 < n {
			hi = starts[i+1]
		}
		probe := hi.Sub(keyspace.FromUint64(1))
		if got := tab.Owner(probe); got != members[i] {
			t.Errorf("owner(end[%d]-1) = %s, want %s", i, got, members[i])
		}
	}
}

func TestReplicasProperties(t *testing.T) {
	tab := mustNew(t, 10, Balanced, 3)
	for i := 0; i < 50; i++ {
		k := keyspace.Hash([]byte(fmt.Sprintf("rk%d", i)))
		reps := tab.Replicas(k)
		if len(reps) != 3 {
			t.Fatalf("want 3 replicas, got %d", len(reps))
		}
		if reps[0] != tab.Owner(k) {
			t.Fatalf("owner must be first replica")
		}
		seen := map[NodeID]bool{}
		for _, r := range reps {
			if seen[r] {
				t.Fatalf("duplicate replica %s", r)
			}
			seen[r] = true
		}
	}
}

func TestReplicasAreRingNeighbors(t *testing.T) {
	tab := mustNew(t, 10, Balanced, 5)
	k := keyspace.Hash([]byte("neighbor-test"))
	reps := tab.Replicas(k)
	if len(reps) != 5 {
		t.Fatalf("want 5 replicas, got %d", len(reps))
	}
	ownerIdx, _ := tab.MemberIndex(reps[0])
	wantSet := map[NodeID]bool{}
	n := tab.Size()
	for d := -2; d <= 2; d++ {
		wantSet[tab.MemberAt((ownerIdx+d+n)%n)] = true
	}
	for _, r := range reps {
		if !wantSet[r] {
			t.Errorf("replica %s is not within 2 ring positions of owner", r)
		}
	}
}

func TestReplicasCappedByMembership(t *testing.T) {
	tab := mustNew(t, 2, Balanced, 5)
	if got := len(tab.Replicas(keyspace.Zero)); got != 2 {
		t.Errorf("2-node table should cap replicas at 2, got %d", got)
	}
}

func TestWithMembersBumpsVersion(t *testing.T) {
	tab := mustNew(t, 4, Balanced, 3)
	bigger, err := tab.WithMembers(nodeIDs(5))
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Version() <= tab.Version() {
		t.Errorf("version must grow: %d -> %d", tab.Version(), bigger.Version())
	}
	if bigger.Size() != 5 {
		t.Errorf("size = %d, want 5", bigger.Size())
	}
}

func TestWithoutNodesSplitsAmongReplicas(t *testing.T) {
	tab := mustNew(t, 8, Balanced, 3)
	members := tab.Members()
	victim := members[3]
	rec, err := tab.WithoutNodes([]NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Contains(victim) {
		t.Fatal("victim still a member of recovery table")
	}
	if rec.Size() != 7 {
		t.Fatalf("recovery table size = %d, want 7", rec.Size())
	}
	// Every key the victim owned must now be owned by one of its replicas.
	reps, err := tab.ReplicasOfNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	repSet := map[NodeID]bool{}
	for _, r := range reps[1:] { // exclude the victim itself
		repSet[r] = true
	}
	for _, r := range tab.RangesOf(victim) {
		// Probe several keys across the lost range.
		for f := 0; f < 8; f++ {
			k := r.Lo.Add(r.Size().Div(8).MulUint64(uint64(f)))
			if !r.Contains(k) {
				continue
			}
			heir := rec.Owner(k)
			if !repSet[heir] {
				t.Errorf("key %s reassigned to %s, not a replica of %s (replicas %v)",
					k.Short(), heir, victim, reps)
			}
		}
	}
	// Surviving nodes keep their ranges.
	for _, id := range members {
		if id == victim {
			continue
		}
		for _, r := range tab.RangesOf(id) {
			if got := rec.Owner(r.Lo); got != id {
				t.Errorf("survivor %s lost range %v to %s", id, r, got)
			}
		}
	}
}

func TestWithoutNodesSplitIsEven(t *testing.T) {
	tab := mustNew(t, 8, Balanced, 3)
	victim := tab.Members()[2]
	rec, err := tab.WithoutNodes([]NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	// The two surviving replicas should each take about half the lost range.
	lost := tab.RangesOf(victim)[0]
	perHeir := map[NodeID]uint64{}
	const probes = 1024
	step := lost.Size().Div(probes)
	k := lost.Lo
	for i := 0; i < probes; i++ {
		perHeir[rec.Owner(k)]++
		k = k.Add(step)
	}
	if len(perHeir) != 2 {
		t.Fatalf("lost range split among %d heirs, want 2: %v", len(perHeir), perHeir)
	}
	for id, c := range perHeir {
		frac := float64(c) / probes
		if frac < 0.45 || frac > 0.55 {
			t.Errorf("heir %s took fraction %.3f of the lost range, want ~0.5", id, frac)
		}
	}
}

func TestWithoutNodesErrors(t *testing.T) {
	tab := mustNew(t, 3, Balanced, 3)
	if _, err := tab.WithoutNodes([]NodeID{"nonexistent"}); err == nil {
		t.Error("unknown node should error")
	}
	if _, err := tab.WithoutNodes(tab.Members()); err == nil {
		t.Error("removing all nodes should error")
	}
	same, err := tab.WithoutNodes(nil)
	if err != nil || same != tab {
		t.Error("removing nothing should return the same table")
	}
}

// TestSegmentsReportExactlyLostRanges: after a failure, the segments whose
// owner changed are exactly the victim's ranges, each now owned by a
// member of the recovery table, and they cover the ring with the rest.
func TestSegmentsReportExactlyLostRanges(t *testing.T) {
	tab := mustNew(t, 6, Balanced, 3)
	victim := tab.Members()[4]
	rec, err := tab.WithoutNodes([]NodeID{victim})
	if err != nil {
		t.Fatal(err)
	}
	var lostSize, movedSize, total keyspace.Key
	for _, r := range tab.RangesOf(victim) {
		lostSize = lostSize.Add(r.Size())
	}
	moves := 0
	for _, s := range Segments(tab, rec) {
		total = total.Add(s.Range.Size())
		if s.Old[0] == s.New[0] {
			continue
		}
		moves++
		if s.Old[0] != victim {
			t.Errorf("segment %v moves from %s, want %s", s.Range, s.Old[0], victim)
		}
		if !rec.Contains(s.New[0]) {
			t.Errorf("segment %v moves to %s, not in the recovery table", s.Range, s.New[0])
		}
		movedSize = movedSize.Add(s.Range.Size())
	}
	if moves == 0 {
		t.Fatal("expected moves after failure")
	}
	if lostSize != movedSize {
		t.Errorf("moved size %s != lost size %s", movedSize.Short(), lostSize.Short())
	}
	if !total.IsZero() {
		t.Errorf("segments cover %s of the ring, want all of it (a sum that wraps to zero)", total.Short())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{Balanced, PastryStyle} {
		tab := mustNew(t, 7, scheme, 3)
		data, err := tab.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalTable(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != tab.String() {
			t.Errorf("round trip mismatch:\n got %s\nwant %s", got, tab)
		}
		if got.Version() != tab.Version() || got.Scheme() != tab.Scheme() ||
			got.ReplicationFactor() != tab.ReplicationFactor() {
			t.Error("metadata mismatch after round trip")
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalTable(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := UnmarshalTable([]byte{1, 2, 3}); err == nil {
		t.Error("short input should fail")
	}
	tab := mustNew(t, 3, Balanced, 2)
	data, _ := tab.MarshalBinary()
	if _, err := UnmarshalTable(data[:len(data)-5]); err == nil {
		t.Error("truncated input should fail")
	}
}

func TestPropOwnerConsistentAfterRoundTrip(t *testing.T) {
	tab := mustNew(t, 9, Balanced, 3)
	data, _ := tab.MarshalBinary()
	got, err := UnmarshalTable(data)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k keyspace.Key) bool {
		return got.Owner(k) == tab.Owner(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropReplicasContainOwner(t *testing.T) {
	tab := mustNew(t, 12, PastryStyle, 3)
	f := func(k keyspace.Key) bool {
		reps := tab.Replicas(k)
		return len(reps) == 3 && reps[0] == tab.Owner(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRecoveryTableCoversRing(t *testing.T) {
	tab := mustNew(t, 10, Balanced, 3)
	rec, err := tab.WithoutNodes([]NodeID{tab.Members()[0], tab.Members()[5]})
	if err != nil {
		t.Fatal(err)
	}
	f := func(k keyspace.Key) bool {
		o := rec.Owner(k)
		return rec.Contains(o)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSuccessiveFailures(t *testing.T) {
	// The recovery table must support further failures (non-contiguous
	// ownership), as longer queries may lose several nodes.
	tab := mustNew(t, 8, Balanced, 3)
	cur := tab
	members := tab.Members()
	for i := 0; i < 4; i++ {
		var err error
		cur, err = cur.WithoutNodes([]NodeID{members[i]})
		if err != nil {
			t.Fatalf("failure %d: %v", i, err)
		}
	}
	if cur.Size() != 4 {
		t.Fatalf("size after 4 failures = %d", cur.Size())
	}
	// Ring must still be fully covered.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		var k keyspace.Key
		r.Read(k[:])
		if !cur.Contains(cur.Owner(k)) {
			t.Fatal("owner not a member")
		}
	}
}
