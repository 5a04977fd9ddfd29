package transport

import (
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/ring"
)

func twoNodes(t *testing.T, cfg Config) (*Network, Endpoint, Endpoint) {
	t.Helper()
	net := NewNetwork(cfg)
	t.Cleanup(net.Shutdown)
	a, err := net.Join("nodeA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Join("nodeB")
	if err != nil {
		t.Fatal(err)
	}
	return net, a, b
}

// The contract cases run in contract_test.go on both carriers; what follows
// is what only the simulated Network does.

func TestLoopbackIsNotTraffic(t *testing.T) {
	net, a, _ := twoNodes(t, Config{})
	got := make(chan struct{}, 1)
	a.Handle(typeNote, func(from ring.NodeID, payload []byte) ([]byte, error) {
		got <- struct{}{}
		return nil, nil
	})
	if err := a.Send("nodeA", typeNote, []byte("self")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("loopback not delivered")
	}
	if s := net.Stats(); s.TotalBytes != 0 {
		t.Errorf("loopback counted as traffic: %d bytes", s.TotalBytes)
	}
}

func TestHangIsSilent(t *testing.T) {
	net, a, b := twoNodes(t, Config{})
	var processed atomic.Int32
	b.Handle(typeNote, func(from ring.NodeID, payload []byte) ([]byte, error) {
		processed.Add(1)
		return nil, nil
	})
	downFired := make(chan struct{}, 1)
	a.OnPeerDown(func(id ring.NodeID) { downFired <- struct{}{} })

	net.Hang("nodeB")
	// Sends to a hung node still succeed (connections are alive).
	if err := a.Send("nodeB", typeNote, []byte("x")); err != nil {
		t.Fatalf("send to hung peer failed: %v", err)
	}
	time.Sleep(100 * time.Millisecond)
	if processed.Load() != 0 {
		t.Error("hung node processed a message")
	}
	select {
	case <-downFired:
		t.Error("OnPeerDown fired for a hang (connections alive)")
	default:
	}
	// Resume: the queued message is processed.
	net.Unhang("nodeB")
	deadline := time.Now().Add(2 * time.Second)
	for processed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if processed.Load() != 1 {
		t.Error("message lost across hang/unhang")
	}
}

func TestLatencyShaping(t *testing.T) {
	_, a, b := twoNodes(t, Config{Latency: 80 * time.Millisecond})
	got := make(chan time.Time, 1)
	b.Handle(typeNote, func(from ring.NodeID, payload []byte) ([]byte, error) {
		got <- time.Now()
		return nil, nil
	})
	start := time.Now()
	if err := a.Send("nodeB", typeNote, []byte("x")); err != nil {
		t.Fatal(err)
	}
	arrival := <-got
	if d := arrival.Sub(start); d < 70*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~80ms", d)
	}
}

func TestBandwidthShaping(t *testing.T) {
	// 100 KB at 200 KB/s should take ~0.5s of send-side shaping.
	_, a, b := twoNodes(t, Config{BandwidthBps: 200 * 1024})
	done := make(chan struct{}, 16)
	b.Handle(typeNote, func(from ring.NodeID, payload []byte) ([]byte, error) {
		done <- struct{}{}
		return nil, nil
	})
	payload := make([]byte, 25*1024)
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := a.Send("nodeB", typeNote, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("message lost")
		}
	}
	elapsed := time.Since(start)
	if elapsed < 350*time.Millisecond {
		t.Errorf("4x25KB at 200KB/s finished in %v, want >= ~0.5s", elapsed)
	}
}

func TestStatsAccounting(t *testing.T) {
	net, a, b := twoNodes(t, Config{})
	received := make(chan struct{}, 1)
	b.Handle(typeNote, func(from ring.NodeID, payload []byte) ([]byte, error) {
		received <- struct{}{}
		return nil, nil
	})
	payload := make([]byte, 1000)
	if err := a.Send("nodeB", typeNote, payload); err != nil {
		t.Fatal(err)
	}
	<-received
	s := net.Stats()
	// Accounted at exactly what the TCP carrier would have written.
	want := int64(len(appendFrame(nil, frame{from: "nodeA", mtype: typeNote, payload: payload})))
	if s.TotalBytes != want {
		t.Errorf("TotalBytes = %d, want %d", s.TotalBytes, want)
	}
	if s.TotalMsgs != 1 {
		t.Errorf("TotalMsgs = %d", s.TotalMsgs)
	}
	if s.SentBytes["nodeA"] != want || s.RecvBytes["nodeB"] != want {
		t.Errorf("per-node stats wrong: %+v", s)
	}
	net.ResetStats()
	if s := net.Stats(); s.TotalBytes != 0 || len(s.SentBytes) != 0 {
		t.Error("ResetStats did not clear counters")
	}
}

func TestDuplicateJoinRejected(t *testing.T) {
	net := NewNetwork(Config{})
	defer net.Shutdown()
	if _, err := net.Join("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join("x"); err == nil {
		t.Fatal("duplicate join should fail")
	}
}

// On the simulator only Kill is a failure; Close is a departure that
// notifies nobody. Either frees the identity for a later Join.
func TestCloseDepartsKillFails(t *testing.T) {
	net, a, b := twoNodes(t, Config{})
	down := downs(a)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if net.Alive("nodeB") {
		t.Error("closed node still alive")
	}
	select {
	case id := <-down:
		t.Errorf("Close reported %s down", id)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := net.Join("nodeB"); err != nil {
		t.Fatalf("rejoin after Close: %v", err)
	}
	net.Kill("nodeB")
	if id := recvWithin(t, down, 2*time.Second, "peer-down after Kill"); id != "nodeB" {
		t.Errorf("down peer = %s", id)
	}
	if net.Alive("nodeB") {
		t.Error("killed node still alive")
	}
	if _, err := net.Join("nodeB"); err != nil {
		t.Fatalf("rejoin after Kill: %v", err)
	}
}
