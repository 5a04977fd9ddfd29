package netfault

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
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
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	return ln
}

func proxyFor(t *testing.T, backend string) *Proxy {
	t.Helper()
	p, err := New("127.0.0.1:0", backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func echoOnce(t *testing.T, conn net.Conn, msg string) {
	t.Helper()
	if _, err := conn.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Time{})
	if !bytes.Equal(got, []byte(msg)) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
}

func TestCleanForwarding(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	conn := dialT(t, p.Addr())
	echoOnce(t, conn, "hello through the proxy")
	if st := p.Stats(); st.Accepted != 1 || st.Forwarded == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestResetAllSeversLiveConns(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	conn := dialT(t, p.Addr())
	echoOnce(t, conn, "ping")
	p.ResetAll()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded after reset")
	} else if errors.Is(err, io.EOF) {
		// Acceptable on platforms where linger-0 still FINs, but the
		// connection must be dead either way.
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Fatalf("resets = %d, want 1", st.Resets)
	}
	// New connections work fine after a reset storm.
	echoOnce(t, dialT(t, p.Addr()), "back again")
}

func TestDelayInjection(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	p.SetFaults(Faults{Delay: 50 * time.Millisecond})
	conn := dialT(t, p.Addr())
	start := time.Now()
	echoOnce(t, conn, "slow")
	// Two directions, each delayed once.
	if d := time.Since(start); d < 90*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~100ms of injected delay", d)
	}
	p.SetFaults(Faults{})
	start = time.Now()
	echoOnce(t, conn, "fast")
	if d := time.Since(start); d > 40*time.Millisecond {
		t.Fatalf("delay persisted after clearing the faults: %v", d)
	}
}

func TestBlackholeStallsWithoutClosing(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	conn := dialT(t, p.Addr())
	echoOnce(t, conn, "before")
	p.SetFaults(Faults{Blackhole: true})
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatalf("write into blackhole failed: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := conn.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("blackhole read: got %v, want timeout (conn open, no data)", err)
	}
	conn.SetReadDeadline(time.Time{})
	// Healing the partition restores the connection (bytes swallowed
	// during the blackhole stay lost, like a real partition).
	p.SetFaults(Faults{})
	echoOnce(t, conn, "after heal")
}

func TestTruncateMidStream(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	p.SetFaults(Faults{TruncateAfter: 10})
	conn := dialT(t, p.Addr())
	if _, err := conn.Write([]byte("0123456789ABCDEF")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, _ := io.ReadAll(conn) // ends in reset/EOF after at most 10 bytes
	if len(got) > 10 {
		t.Fatalf("got %d bytes through a 10-byte truncation", len(got))
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Fatalf("resets = %d, want 1", st.Resets)
	}
}

func TestListenerFlap(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	held := dialT(t, p.Addr())
	echoOnce(t, held, "pre-flap")
	p.Pause()
	if c, err := net.DialTimeout("tcp", p.Addr(), 500*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded while listener down")
	}
	// Live connections ride through the flap.
	echoOnce(t, held, "mid-flap")
	if err := p.Resume(); err != nil {
		t.Fatal(err)
	}
	echoOnce(t, dialT(t, p.Addr()), "post-flap")
}

func TestConcurrentConnsUnderResets(t *testing.T) {
	ln := echoServer(t)
	p := proxyFor(t, ln.Addr().String())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				conn, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
				if err != nil {
					continue // reset storm may race the dial
				}
				conn.Write([]byte("x"))
				buf := make([]byte, 1)
				conn.SetReadDeadline(time.Now().Add(time.Second))
				conn.Read(buf)
				conn.Close()
			}
		}()
	}
	for i := 0; i < 10; i++ {
		time.Sleep(5 * time.Millisecond)
		p.ResetAll()
	}
	wg.Wait()
}
