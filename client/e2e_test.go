package client_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra"
	"orchestra/client"
)

func serveCluster(t *testing.T, nodes int, opts orchestra.ServeOptions) (*orchestra.Cluster, *orchestra.Server) {
	t.Helper()
	c, err := orchestra.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	srv, err := c.Serve("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return c, srv
}

// TestEndToEnd drives a served 3-node cluster through the full client
// surface from many concurrent goroutines: create once, then each
// client publishes its own rows, queries them back, and checks status.
func TestEndToEnd(t *testing.T) {
	_, srv := serveCluster(t, 3, orchestra.ServeOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	setup, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.Create(ctx, "inv", []string{"item:string", "qty:int", "price:float"}, "item"); err != nil {
		t.Fatal(err)
	}

	const clients, rowsEach = 8, 5
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			rows := make([][]any, rowsEach)
			for i := range rows {
				rows[i] = []any{fmt.Sprintf("item-%d-%d", g, i), 100*g + i, 0.5}
			}
			if _, err := cl.Publish(ctx, "inv", rows); err != nil {
				errc <- fmt.Errorf("client %d publish: %w", g, err)
				return
			}
			res, err := cl.Query(ctx, fmt.Sprintf("SELECT item, qty FROM inv WHERE qty >= %d AND qty < %d", 100*g, 100*g+rowsEach))
			if err != nil {
				errc <- fmt.Errorf("client %d query: %w", g, err)
				return
			}
			if len(res.Rows) != rowsEach {
				errc <- fmt.Errorf("client %d: got %d rows, want %d", g, len(res.Rows), rowsEach)
				return
			}
			for _, r := range res.Rows {
				if _, ok := r[0].(string); !ok {
					errc <- fmt.Errorf("client %d: item came back as %T", g, r[0])
					return
				}
				if _, ok := r[1].(int64); !ok {
					errc <- fmt.Errorf("client %d: qty came back as %T", g, r[1])
					return
				}
			}
			st, err := cl.Status(ctx)
			if err != nil {
				errc <- fmt.Errorf("client %d status: %w", g, err)
				return
			}
			if st.Members != 3 {
				errc <- fmt.Errorf("client %d: status members %d, want 3", g, st.Members)
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// All 40 rows visible, catalog consistent, counters accounted.
	res, err := setup.Query(ctx, "SELECT item FROM inv")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != clients*rowsEach {
		t.Fatalf("total rows %d, want %d", len(res.Rows), clients*rowsEach)
	}
	rel, err := setup.Schema(ctx, "inv")
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Columns) != 3 || rel.Keys[0] != "item" || rel.Rows != int64(clients*rowsEach) {
		t.Fatalf("catalog entry: %+v", rel)
	}
	st, err := setup.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Ops["query"].Count; got < clients+1 {
		t.Fatalf("server counted %d queries, want >= %d", got, clients+1)
	}
	if st.Ops["publish"].Count != clients {
		t.Fatalf("server counted %d publishes, want %d", st.Ops["publish"].Count, clients)
	}
}

// TestAdmissionControlBoundsInFlight serves with a limit of 2 and makes
// every execution hold its slot briefly; 8 concurrent clients then
// cannot push the server past 2 in-flight queries, and the peak
// actually reaches the bound.
func TestAdmissionControlBoundsInFlight(t *testing.T) {
	var inFlight, peak, over atomic.Int64
	const limit = 2
	c, srv := serveCluster(t, 3, orchestra.ServeOptions{
		MaxConcurrentQueries: limit,
		OnQueryStart: func() {
			n := inFlight.Add(1)
			defer inFlight.Add(-1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			if n > limit {
				over.Add(1)
			}
			time.Sleep(20 * time.Millisecond)
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	setup, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.Create(ctx, "kv", []string{"k:string", "v:int"}); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Publish(ctx, "kv", [][]any{{"a", 1}, {"b", 2}}); err != nil {
		t.Fatal(err)
	}
	_ = c

	const clients, each = 8, 3
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := client.Dial(srv.Addr())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for i := 0; i < each; i++ {
				if _, err := cl.Query(ctx, "SELECT k, v FROM kv"); err != nil {
					errc <- fmt.Errorf("client %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if over.Load() > 0 {
		t.Fatalf("%d executions ran beyond the admission limit", over.Load())
	}
	if peak.Load() != limit {
		t.Fatalf("peak in-flight %d, want %d (executions never overlapped?)", peak.Load(), limit)
	}
	st, err := setup.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakInFlightQueries != limit || st.MaxConcurrentQueries != limit {
		t.Fatalf("status peak %d / max %d, want %d / %d",
			st.PeakInFlightQueries, st.MaxConcurrentQueries, limit, limit)
	}
}

// TestTypedErrors maps server failures onto the client's sentinel errors.
func TestTypedErrors(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	ctx := context.Background()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Publish(ctx, "ghost", [][]any{{"x"}}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("publish to unknown relation: %v, want ErrNotFound", err)
	}
	if _, err := cl.Schema(ctx, "ghost"); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("schema of unknown relation: %v, want ErrNotFound", err)
	}
	if err := cl.Create(ctx, "bad", []string{"a:notatype"}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("bad column type: %v, want ErrBadRequest", err)
	}
	if err := cl.Create(ctx, "kv", []string{"k:string", "v:int"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "kv", [][]any{{"a", "not-an-int"}}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("type mismatch: %v, want ErrBadRequest", err)
	}
	var se *client.Error
	_, err = cl.Publish(ctx, "ghost", [][]any{{"x"}})
	if !errors.As(err, &se) || se.Code != "not_found" {
		t.Fatalf("error detail lost: %v", err)
	}
	if want := "orchestra server: not_found: "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error text %q, want it to begin %q", err, want)
	}
}

// TestContextCancellation: canceling a context (no deadline) unblocks
// an in-flight query promptly instead of waiting out the server.
func TestContextCancellation(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{
		OnQueryStart: func() {
			started <- struct{}{}
			<-release
		},
	})
	defer close(release)
	setup, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	ctxSetup := context.Background()
	if err := setup.Create(ctxSetup, "kv", []string{"k:string", "v:int"}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := setup.Query(ctx, "SELECT k FROM kv")
		errCh <- err
	}()
	<-started // query is executing server-side
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unblock the in-flight query")
	}
}

// TestEpochPinning publishes twice and re-queries the older snapshot
// through the wire.
func TestEpochPinning(t *testing.T) {
	_, srv := serveCluster(t, 2, orchestra.ServeOptions{})
	ctx := context.Background()
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, "kv", []string{"k:string", "v:int"}); err != nil {
		t.Fatal(err)
	}
	e1, err := cl.Publish(ctx, "kv", [][]any{{"a", 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Publish(ctx, "kv", [][]any{{"b", 2}}); err != nil {
		t.Fatal(err)
	}
	cur, err := cl.Query(ctx, "SELECT k FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.Rows) != 2 {
		t.Fatalf("current snapshot: %d rows, want 2", len(cur.Rows))
	}
	old, err := cl.QueryOpts(ctx, "SELECT k FROM kv", client.QueryOptions{Epoch: e1})
	if err != nil {
		t.Fatal(err)
	}
	if len(old.Rows) != 1 || old.Epoch != e1 {
		t.Fatalf("pinned snapshot: %d rows at epoch %d, want 1 at %d", len(old.Rows), old.Epoch, e1)
	}
}

// TestCancelAfterCallLeavesPoolClean: cancelling a call's context right
// after the call returned must not reach the connection it used — that
// connection is already back in the pool, and a deadline forced onto it
// would fail an unrelated later call with "i/o timeout". (End to end the
// window is a few scheduler quanta wide; TestConnCallWatchdogStopsAtFinish
// opens it deterministically.)
func TestCancelAfterCallLeavesPoolClean(t *testing.T) {
	c, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	if err := c.CreateRelation(orchestra.NewSchema("kv", "k:string", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Publish("kv", orchestra.Rows{{"a", 1}}); err != nil {
		t.Fatal(err)
	}
	c.EnableQueryCache(16)
	cl, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1, RefreshInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		_, err := cl.Query(ctx, "SELECT k, v FROM kv")
		cancel()
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}
