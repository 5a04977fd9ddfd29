package cluster

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"orchestra/internal/kvstore"
	"orchestra/internal/netfault"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
)

// reserveAddr grabs a free localhost port and releases it so a TCP
// endpoint can listen there with a dialable identity.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestWalShipTruncatedByProxy exercises the walship wire op over a real
// TCP link through the netfault proxy: a mid-frame RST must surface as a
// clean request failure (no partial apply, no hang), and once the fault
// clears a retry of the same request streams the full log.
func TestWalShipTruncatedByProxy(t *testing.T) {
	store := kvstore.NewMemory()
	want := make(map[string]string, 40)
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("t/ship%03d", i)
		v := fmt.Sprintf("val%03d", i)
		if err := store.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}

	serverEP, err := transport.ListenTCP(reserveAddr(t))
	if err != nil {
		t.Fatal(err)
	}
	table, err := ring.New([]ring.NodeID{serverEP.ID()}, ring.Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	server := NewNode(serverEP, store, table, Config{Replication: 1})
	t.Cleanup(func() {
		server.Close()
		serverEP.Close()
	})

	proxy, err := netfault.New("127.0.0.1:0", serverEP.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	client, err := transport.ListenTCP(reserveAddr(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	via := ring.NodeID(proxy.Addr())

	// Sever the stream mid-frame: the proxy forwards 20 bytes of the
	// request and RSTs, so the server never sees a complete frame and the
	// client's request must fail (by reset or by deadline), not hang.
	proxy.SetFaults(netfault.Faults{TruncateAfter: 20})
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	_, err = client.Request(ctx, via, msgWalShip, encodeShipReq(0, 1<<20))
	cancel()
	if err == nil {
		t.Fatal("walship through a truncating proxy must fail")
	}
	if s := proxy.Stats(); s.Resets == 0 {
		t.Fatalf("proxy reported no resets: %+v", s)
	}

	// Fault cleared: the identical request must now succeed. The first
	// attempts may still hit the client's cached-but-reset connection, so
	// retry briefly.
	proxy.SetFaults(netfault.Faults{})
	var resp []byte
	deadline := time.Now().Add(10 * time.Second)
	for {
		rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err = client.Request(rctx, via, msgWalShip, encodeShipReq(0, 1<<20))
		rcancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("walship never succeeded after fault cleared: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	recs, more, truncated, err := decodeShipResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if more || truncated {
		t.Fatalf("unexpected flags: more=%v truncated=%v", more, truncated)
	}
	if len(recs) != len(want) {
		t.Fatalf("shipped %d records, want %d", len(recs), len(want))
	}
	if recs[0].Seq != 1 {
		t.Fatalf("first shipped seq = %d, want 1", recs[0].Seq)
	}
	for _, rec := range recs {
		op, err := rec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if op.Del || want[string(op.Key)] != string(op.Val) {
			t.Fatalf("record %d decoded to %q=%q del=%v", rec.Seq, op.Key, op.Val, op.Del)
		}
	}
}
