package client

import (
	"context"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// deadlineConn records deadlines forced onto it after it was released.
type deadlineConn struct {
	net.Conn
	released atomic.Bool
	late     atomic.Int64
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	if c.released.Load() && !t.IsZero() {
		c.late.Add(1)
	}
	return nil
}

func (c *deadlineConn) Close() error { return nil }

// TestConnCallWatchdogStopsAtFinish: once finish has returned a
// connection to the pool, the call's cancellation watchdog can no longer
// touch it — even when the watchdog goroutine first gets to run only
// after both the finish and the cancel have happened.
func TestConnCallWatchdogStopsAtFinish(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // nothing runs until this goroutine yields
	c := &Client{opts: Options{PoolSize: 1}}
	for i := 0; i < 200; i++ {
		fake := &deadlineConn{}
		conn := &wireConn{Conn: fake, ep: &endpoint{addr: "test"}}
		ctx, cancel := context.WithCancel(context.Background())
		cc := newConnCall(ctx, conn)
		cc.finish(c, true)
		fake.released.Store(true)
		cancel()
		for j := 0; j < 10; j++ {
			runtime.Gosched()
		}
		if n := fake.late.Load(); n != 0 {
			t.Fatalf("iteration %d: watchdog forced %d deadline(s) onto a released connection", i, n)
		}
		if len(conn.ep.idle) != 1 {
			t.Fatalf("iteration %d: clean connection was not pooled", i)
		}
	}
}
