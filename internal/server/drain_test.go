package server

import (
	"context"
	"net"
	"testing"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

func TestHealthOp(t *testing.T) {
	s := startTestServer(t, &stubBackend{}, Config{
		Peers: func() []string { return []string{"a:1", "b:2"} },
	})
	conn := dialTest(t, s)
	conn.send(&wire.Request{ID: 1, Op: wire.OpHealth})
	r := conn.await(1)
	if r.err() != nil {
		t.Fatalf("health: %v", r.err())
	}
	h := r.resp.Health
	if h == nil {
		t.Fatal("health response missing payload")
	}
	if h.Status != "ok" {
		t.Fatalf("status = %q, want ok", h.Status)
	}
	if len(h.Peers) != 2 || h.Peers[0] != "a:1" || h.Peers[1] != "b:2" {
		t.Fatalf("peers = %v", h.Peers)
	}
	if h.Connections != 1 {
		t.Fatalf("connections = %d, want 1", h.Connections)
	}
}

// TestShutdownDrains: Shutdown stops accepting, lets in-flight work
// finish, rejects new work with CodeUnavailable, and keeps answering
// health (reporting draining) so clients can steer away.
func TestShutdownDrains(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryDelay: 300 * time.Millisecond}, Config{})
	conn := dialTest(t, s)

	// In-flight query that outlives the start of the drain.
	conn.query(1, "slow")
	// Give the server a moment to start the handler before draining.
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New connections are refused once the listener is down.
	if c, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("dial succeeded during drain")
	}

	// New work on the existing session is refused with the retryable
	// proof-of-non-execution code.
	conn.query(2, "late")
	late, err := wire.AppendPublishPayload(nil, 4, 0, "r", rowBatch(t, []tuple.Row{{tuple.I(1)}}))
	if err != nil {
		t.Fatal(err)
	}
	conn.sendFrame(wire.FramePublish, late)
	// Health still answers, reporting the drain.
	conn.send(&wire.Request{ID: 3, Op: wire.OpHealth})

	for _, id := range []uint64{2, 4} {
		if refused := conn.await(id); refused.err() == nil || refused.err().Code != wire.CodeUnavailable {
			t.Fatalf("late request %d: got %+v, want %s", id, refused.err(), wire.CodeUnavailable)
		}
	}
	health := conn.await(3)
	if health.err() != nil || health.resp.Health == nil || health.resp.Health.Status != "draining" {
		t.Fatalf("health during drain: %+v", health.resp)
	}

	// The in-flight query still completes successfully.
	if slow := conn.await(1); slow.err() != nil || len(slow.rows) != 1 {
		t.Fatalf("in-flight query failed during drain: %+v", slow.end)
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownTimeout: a drain that cannot finish in time returns the
// context error and hard-closes the server.
func TestShutdownTimeout(t *testing.T) {
	s := startTestServer(t, &stubBackend{queryDelay: 10 * time.Second}, Config{})
	dialTest(t, s).query(1, "stuck")
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown error = %v, want deadline exceeded", err)
	}
}
