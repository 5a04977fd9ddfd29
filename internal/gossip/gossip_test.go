package gossip

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
)

func mkCluster(t *testing.T, n int) (*transport.Network, []*Gossiper) {
	t.Helper()
	net := transport.NewNetwork(transport.Config{})
	t.Cleanup(net.Shutdown)
	var ids []ring.NodeID
	var gs []*Gossiper
	for i := 0; i < n; i++ {
		ids = append(ids, ring.NodeID(fmt.Sprintf("g%d", i)))
	}
	for i := 0; i < n; i++ {
		ep, err := net.Join(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, New(ep, int64(i+1)))
	}
	for _, g := range gs {
		g.SetPeers(ids)
	}
	return net, gs
}

func waitEpoch(t *testing.T, gs []*Gossiper, want tuple.Epoch, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, g := range gs {
			if g.Current() != want {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, g := range gs {
		t.Logf("node %d at epoch %d", i, g.Current())
	}
	t.Fatalf("cluster did not converge to epoch %d", want)
}

func TestAdvancePropagates(t *testing.T) {
	_, gs := mkCluster(t, 5)
	for _, g := range gs {
		g.Start(5 * time.Millisecond)
		defer g.Stop()
	}
	gs[0].Advance(7)
	waitEpoch(t, gs, 7, 3*time.Second)
}

func TestNextIsMonotonic(t *testing.T) {
	_, gs := mkCluster(t, 3)
	e1 := gs[0].Next()
	e2 := gs[0].Next()
	if e2 <= e1 {
		t.Errorf("Next not monotonic: %d then %d", e1, e2)
	}
}

func TestNextAfterRemoteAdvance(t *testing.T) {
	_, gs := mkCluster(t, 4)
	for _, g := range gs {
		g.Start(5 * time.Millisecond)
		defer g.Stop()
	}
	gs[1].Advance(10)
	waitEpoch(t, gs, 10, 3*time.Second)
	if e := gs[2].Next(); e != 11 {
		t.Errorf("Next after seeing 10 = %d, want 11", e)
	}
}

func TestMergeIgnoresStale(t *testing.T) {
	_, gs := mkCluster(t, 2)
	gs[0].Advance(9)
	gs[0].Advance(4) // stale
	if e := gs[0].Current(); e != 9 {
		t.Errorf("Current = %d, want 9", e)
	}
}

func TestConvergesWithDeadPeer(t *testing.T) {
	net, gs := mkCluster(t, 5)
	for _, g := range gs {
		g.Start(5 * time.Millisecond)
		defer g.Stop()
	}
	net.Kill("g4")
	gs[0].Advance(3)
	waitEpoch(t, gs[:4], 3, 3*time.Second)
}

// TestMalformedPayloadRefused: a gossip message is the 16-byte
// epoch | seq payload; anything else is refused whole — not half-applied
// as an epoch without its sequence.
func TestMalformedPayloadRefused(t *testing.T) {
	_, gs := mkCluster(t, 2)
	ahead := binary.BigEndian.AppendUint64(nil, 99)
	for _, payload := range [][]byte{nil, ahead, append(ahead, 1, 2, 3), make([]byte, 17)} {
		if err := gs[0].receive("g1", payload); err == nil {
			t.Errorf("%d-byte payload accepted", len(payload))
		}
	}
	if got := gs[0].Current(); got != 0 {
		t.Fatalf("a refused payload advanced the epoch to %d", got)
	}
	if err := gs[0].receive("g1", append(ahead, make([]byte, 8)...)); err != nil || gs[0].Current() != 99 {
		t.Fatalf("well-formed payload: err=%v epoch=%d", err, gs[0].Current())
	}
}
