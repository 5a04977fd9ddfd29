package transport

import (
	"sync"
	"testing"
	"time"

	"orchestra/internal/ring"
)

// That a missed pong fails pending requests and notifies once is a contract
// case (contract_test.go); these cover the watch set and the re-arm, which
// need the simulator's Hang and Unhang.

func fastPinger(ep Endpoint, peers ...ring.NodeID) *Pinger {
	p := NewPinger(ep, 5*time.Millisecond, 20*time.Millisecond)
	p.SetPeers(peers)
	p.Start()
	return p
}

func TestPingerHealthyPeerStaysUp(t *testing.T) {
	_, a, b := twoNodes(t, Config{})
	down := downs(a)
	defer fastPinger(a, b.ID()).Stop()
	select {
	case id := <-down:
		t.Fatalf("healthy peer %s reported down", id)
	case <-time.After(100 * time.Millisecond):
	}
}

// A peer that answers again is forgiven: its pong re-arms the report, so a
// second hang is a second notification (the parent's pinger never probed a
// reported peer again).
func TestPingerReportsSecondHang(t *testing.T) {
	net, a, b := twoNodes(t, Config{})
	down := downs(a)
	defer fastPinger(a, b.ID()).Stop()
	for round := 1; round <= 2; round++ {
		net.Hang(b.ID())
		if id := recvWithin(t, down, 2*time.Second, "peer-down"); id != b.ID() {
			t.Fatalf("round %d: down peer = %s", round, id)
		}
		net.Unhang(b.ID())
		// The backlog of pings is answered; wait for a pong to land.
		time.Sleep(50 * time.Millisecond)
	}
	select {
	case id := <-down:
		t.Fatalf("recovered peer %s reported down", id)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestPingerProbesOnlyItsPeers(t *testing.T) {
	net, a, b := twoNodes(t, Config{})
	down := downs(a)
	p := fastPinger(a, a.ID()) // watching yourself is a no-op
	defer p.Stop()
	net.Hang(b.ID())
	select {
	case id := <-down:
		t.Fatalf("unwatched peer %s reported down", id)
	case <-time.After(100 * time.Millisecond):
	}
	// The watch set follows SetPeers, as a node's follows its table.
	p.SetPeers([]ring.NodeID{a.ID(), b.ID()})
	if id := recvWithin(t, down, 2*time.Second, "peer-down"); id != b.ID() {
		t.Fatalf("down peer = %s", id)
	}
}

// TestPingerStopRaces hammers SetPeers/Stop concurrently with the probe
// loop; run under -race this pins down the locking contract, including Stop
// during an in-flight probe and double Stop.
func TestPingerStopRaces(t *testing.T) {
	net, a, b := twoNodes(t, Config{})
	p := NewPinger(a, time.Millisecond, 5*time.Millisecond)
	p.SetPeers([]ring.NodeID{b.ID()})
	p.Start()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				p.SetPeers([]ring.NodeID{b.ID()})
				p.SetPeers(nil)
			}
		}()
	}
	net.Hang(b.ID()) // probes in flight now time out while peers churn
	wg.Wait()
	var stops sync.WaitGroup
	for i := 0; i < 2; i++ {
		stops.Add(1)
		go func() {
			defer stops.Done()
			p.Stop() // concurrent double Stop must be safe
		}()
	}
	stops.Wait()
}
