package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/ring"
)

const (
	typeEcho MsgType = 1
	typeNote MsgType = 2
	typeFail MsgType = 3
)

// fabric is what a contract case needs from a carrier: endpoints, a way to
// crash one, and a peer that takes messages but never answers.
type fabric interface {
	// join attaches an endpoint under a fresh identity.
	join(t *testing.T) Endpoint
	// kill crashes ep as its peers see it. On the simulator that is
	// Network.Kill — Close there is a departure and notifies nobody. On
	// TCP it is Close: a closed socket is indistinguishable from a crash.
	kill(ep Endpoint)
	// rejoin attaches a new endpoint under a killed one's identity.
	rejoin(t *testing.T, id ring.NodeID) Endpoint
	// hung returns the identity of a machine that keeps its connections
	// and accepts messages but handles nothing, pings included.
	hung(t *testing.T) ring.NodeID
}

type simFabric struct {
	net  *Network
	next int
}

func newSimFabric(t *testing.T) fabric {
	n := NewNetwork(Config{})
	t.Cleanup(n.Shutdown)
	return &simFabric{net: n}
}

func (s *simFabric) join(t *testing.T) Endpoint {
	s.next++
	return s.rejoin(t, ring.NodeID(fmt.Sprintf("node%c", 'A'+s.next-1)))
}

func (s *simFabric) rejoin(t *testing.T, id ring.NodeID) Endpoint {
	t.Helper()
	ep, err := s.net.Join(id)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func (s *simFabric) kill(ep Endpoint) { s.net.Kill(ep.ID()) }

func (s *simFabric) hung(t *testing.T) ring.NodeID {
	ep := s.join(t)
	s.net.Hang(ep.ID())
	return ep.ID()
}

type tcpFabric struct{}

func newTCPFabric(*testing.T) fabric { return tcpFabric{} }

// freeAddr reserves a loopback address by binding :0 and releasing it; a
// TCP endpoint's identity must be the address its peers dial.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func (f tcpFabric) join(t *testing.T) Endpoint { return f.rejoin(t, ring.NodeID(freeAddr(t))) }

func (tcpFabric) rejoin(t *testing.T, id ring.NodeID) Endpoint {
	t.Helper()
	ep, err := ListenTCP(string(id))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func (tcpFabric) kill(ep Endpoint) { ep.Close() }

// hung on TCP is a listener that accepts and reads but never writes.
func (tcpFabric) hung(t *testing.T) ring.NodeID {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, conn) // until the dialer closes
				conn.Close()
			}()
		}
	}()
	return ring.NodeID(ln.Addr().String())
}

func ctxFor(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// stuck returns a handler that signals entered and then never answers
// (until the test ends).
func stuck(t *testing.T, entered chan<- struct{}) HandlerFunc {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	return func(ring.NodeID, []byte) ([]byte, error) {
		close(entered)
		<-release
		return nil, nil
	}
}

func recvWithin[T any](t *testing.T, ch <-chan T, d time.Duration, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(d):
		t.Fatalf("%s: nothing within %v", what, d)
		panic("unreachable")
	}
}

func echo(_ ring.NodeID, p []byte) ([]byte, error) { return p, nil }

// meet makes a and b known to each other in both directions (on TCP: both
// connections exist), so that either notices the other's death unprompted.
func meet(t *testing.T, a, b Endpoint) {
	t.Helper()
	b.Handle(typeEcho, echo)
	if _, err := a.Request(ctxFor(t, 5*time.Second), b.ID(), typeEcho, nil); err != nil {
		t.Fatalf("meet %s -> %s: %v", a.ID(), b.ID(), err)
	}
}

// downs subscribes to ep's peer-down notifications.
func downs(ep Endpoint) <-chan ring.NodeID {
	ch := make(chan ring.NodeID, 16) // more than any case's notifications: a callback never blocks
	ep.OnPeerDown(func(id ring.NodeID) { ch <- id })
	return ch
}

// TestEndpointContract is the package comment, clause by clause, on both
// carriers.
func TestEndpointContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, fab fabric)
	}{
		{"send and handle", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			got := make(chan string, 1)
			b.Handle(typeNote, func(from ring.NodeID, p []byte) ([]byte, error) {
				got <- fmt.Sprintf("%s:%s", from, p)
				return nil, nil
			})
			if err := a.Send(b.ID(), typeNote, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			if s := recvWithin(t, got, 5*time.Second, "message"); s != string(a.ID())+":hello" {
				t.Errorf("got %q", s)
			}
		}},
		{"request and reply", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			b.Handle(typeEcho, func(_ ring.NodeID, p []byte) ([]byte, error) {
				return append([]byte("echo:"), p...), nil
			})
			resp, err := a.Request(ctxFor(t, 5*time.Second), b.ID(), typeEcho, []byte("ping"))
			if err != nil || string(resp) != "echo:ping" {
				t.Errorf("resp = %q, %v", resp, err)
			}
		}},
		{"remote error and no handler", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			b.Handle(typeFail, func(ring.NodeID, []byte) ([]byte, error) { return nil, errors.New("boom") })
			_, err := a.Request(ctxFor(t, 5*time.Second), b.ID(), typeFail, nil)
			var re *RemoteError
			if !errors.As(err, &re) || re.Msg != "boom" || re.Peer != b.ID() {
				t.Errorf("handler error arrived as %v", err)
			}
			_, err = a.Request(ctxFor(t, 5*time.Second), b.ID(), MsgType(77), nil)
			if !errors.As(err, &re) || !strings.Contains(re.Msg, ErrNoHandler.Error()) {
				t.Errorf("unhandled type answered %v", err)
			}
		}},
		{"per-link FIFO", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			const n = 200
			var got []int // the delivery goroutine's alone until done closes
			done := make(chan struct{})
			b.Handle(typeNote, func(_ ring.NodeID, p []byte) ([]byte, error) {
				if got = append(got, int(p[0])<<8|int(p[1])); len(got) == n {
					close(done)
				}
				return nil, nil
			})
			for i := 0; i < n; i++ {
				if err := a.Send(b.ID(), typeNote, []byte{byte(i >> 8), byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			recvWithin(t, done, 10*time.Second, "all messages")
			for i, v := range got {
				if v != i {
					t.Fatalf("out of order at %d: %d", i, v)
				}
			}
		}},
		{"one handler at a time", func(t *testing.T, fab fabric) {
			b := fab.join(t)
			var inside, overlaps atomic.Int32
			done := make(chan struct{}, 60)
			b.Handle(typeNote, func(ring.NodeID, []byte) ([]byte, error) {
				if inside.Add(1) > 1 {
					overlaps.Add(1)
				}
				time.Sleep(100 * time.Microsecond)
				inside.Add(-1)
				done <- struct{}{}
				return nil, nil
			})
			for s := 0; s < 3; s++ {
				from := fab.join(t)
				go func() {
					for i := 0; i < 20; i++ {
						_ = from.Send(b.ID(), typeNote, nil)
					}
				}()
			}
			for i := 0; i < 60; i++ {
				recvWithin(t, done, 10*time.Second, "handled message")
			}
			if n := overlaps.Load(); n != 0 {
				t.Errorf("%d handler calls overlapped another", n)
			}
		}},
		{"loopback", func(t *testing.T, fab fabric) {
			a := fab.join(t)
			a.Handle(typeEcho, echo)
			resp, err := a.Request(ctxFor(t, 5*time.Second), a.ID(), typeEcho, []byte("self"))
			if err != nil || string(resp) != "self" {
				t.Errorf("request to self = %q, %v", resp, err)
			}
		}},
		{"reserved type rejected", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			if err := a.Send(b.ID(), typePing, nil); err == nil {
				t.Error("Send accepted a reserved type")
			}
			if _, err := a.Request(ctxFor(t, time.Second), b.ID(), typeReply, nil); err == nil {
				t.Error("Request accepted a reserved type")
			}
		}},
		{"concurrent requests", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			b.Handle(typeEcho, echo)
			var wg sync.WaitGroup
			for i := 0; i < 64; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					msg := fmt.Sprintf("m%d", i)
					resp, err := a.Request(ctxFor(t, 10*time.Second), b.ID(), typeEcho, []byte(msg))
					if err != nil || string(resp) != msg {
						t.Errorf("request %s = %q, %v", msg, resp, err)
					}
				}(i)
			}
			wg.Wait()
		}},
		{"close", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			entered := make(chan struct{})
			b.Handle(typeEcho, stuck(t, entered))
			pending := make(chan error, 1)
			go func() {
				_, err := a.Request(ctxFor(t, 30*time.Second), b.ID(), typeEcho, nil)
				pending <- err
			}()
			recvWithin(t, entered, 5*time.Second, "request reaching its handler")
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if err := recvWithin(t, pending, time.Second, "pending request at Close"); !errors.Is(err, ErrClosed) {
				t.Errorf("pending request at Close = %v, want ErrClosed", err)
			}
			if err := a.Send(b.ID(), typeNote, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after Close = %v", err)
			}
			if _, err := a.Request(context.Background(), b.ID(), typeEcho, nil); !errors.Is(err, ErrClosed) {
				t.Errorf("Request after Close = %v", err)
			}
		}},
		{"peer death notifies, then sends fail", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			down := downs(a)
			meet(t, a, b)
			fab.kill(b)
			if id := recvWithin(t, down, 5*time.Second, "peer-down"); id != b.ID() {
				t.Errorf("down peer = %s", id)
			}
			// The death has been observed: the dead link must be gone, not
			// waiting for a write to fail in it.
			if err := a.Send(b.ID(), typeNote, nil); !errors.Is(err, ErrPeerDown) {
				t.Errorf("Send after observed death = %v, want ErrPeerDown", err)
			}
			select {
			case id := <-down:
				t.Errorf("one failure notified twice (%s)", id)
			case <-time.After(50 * time.Millisecond):
			}
		}},
		{"peer death fails a pending request", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			meet(t, b, a)
			entered := make(chan struct{})
			b.Handle(typeFail, stuck(t, entered))
			pending := make(chan error, 1)
			go func() {
				_, err := a.Request(ctxFor(t, 30*time.Second), b.ID(), typeFail, nil)
				pending <- err
			}()
			recvWithin(t, entered, 5*time.Second, "request reaching its handler")
			fab.kill(b)
			if err := recvWithin(t, pending, time.Second, "pending request"); !errors.Is(err, ErrPeerDown) {
				t.Errorf("pending request = %v, want ErrPeerDown", err)
			}
		}},
		{"second failure of a rejoined peer notifies again", func(t *testing.T, fab fabric) {
			a, b := fab.join(t), fab.join(t)
			down := downs(a)
			heard := make(chan struct{}, 1)
			a.Handle(typeNote, func(ring.NodeID, []byte) ([]byte, error) {
				heard <- struct{}{}
				return nil, nil
			})
			meet(t, a, b)
			fab.kill(b)
			recvWithin(t, down, 5*time.Second, "first peer-down")

			// A rejoining node announces itself; hearing it re-arms.
			b2 := fab.rejoin(t, b.ID())
			if err := b2.Send(a.ID(), typeNote, nil); err != nil {
				t.Fatal(err)
			}
			recvWithin(t, heard, 5*time.Second, "the rejoined peer's message")
			meet(t, a, b2)
			fab.kill(b2)
			if id := recvWithin(t, down, 5*time.Second, "second peer-down"); id != b.ID() {
				t.Errorf("down peer = %s", id)
			}
		}},
		{"missed pong fails pending requests and notifies once", func(t *testing.T, fab fabric) {
			a, h := fab.join(t), fab.hung(t)
			down := downs(a)
			pending := make(chan error, 1)
			go func() {
				_, err := a.Request(ctxFor(t, 30*time.Second), h, typeEcho, nil)
				pending <- err
			}()
			p := NewPinger(a, 10*time.Millisecond, 50*time.Millisecond)
			p.SetPeers([]ring.NodeID{h, a.ID()})
			p.Start()
			defer p.Stop()
			if err := recvWithin(t, pending, time.Second, "request to the hung peer"); !errors.Is(err, ErrPeerDown) {
				t.Errorf("request to a hung peer = %v, want ErrPeerDown", err)
			}
			if id := recvWithin(t, down, time.Second, "peer-down"); id != h {
				t.Errorf("down peer = %s", id)
			}
			// Probing goes on, and fails on, in silence — and a request
			// made after the report still fails with the next probe.
			_, err := a.Request(ctxFor(t, 30*time.Second), h, typeEcho, nil)
			if !errors.Is(err, ErrPeerDown) {
				t.Errorf("later request to a hung peer = %v, want ErrPeerDown", err)
			}
			select {
			case id := <-down:
				t.Errorf("one failure notified twice (%s)", id)
			default:
			}
		}},
	}
	fabrics := []struct {
		name string
		new  func(*testing.T) fabric
	}{{"sim", newSimFabric}, {"tcp", newTCPFabric}}
	for _, c := range cases {
		for _, f := range fabrics {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				t.Parallel()
				c.run(t, f.new(t))
			})
		}
	}
}
