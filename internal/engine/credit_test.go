package engine

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// heldSink blocks in its first StreamCols until released or its context
// ends: a client that stopped reading. It counts the rows it was handed.
type heldSink struct {
	ctx     context.Context
	entered chan struct{}
	release chan struct{}
	rows    int
	relayed int // blocks taken encoded (heldFrameSink)
}

func newHeldSink(ctx context.Context) *heldSink {
	return &heldSink{ctx: ctx, entered: make(chan struct{}), release: make(chan struct{})}
}

func (s *heldSink) StreamCols(b *tuple.Batch) error { return s.take(b.N) }

func (s *heldSink) take(rows int) error {
	if s.rows == 0 {
		close(s.entered)
		select {
		case <-s.release:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	s.rows += rows
	return nil
}

// heldFrameSink is a heldSink that takes remote blocks encoded, so the
// fragments' credit comes back through the relay queue.
type heldFrameSink struct{ *heldSink }

func (s heldFrameSink) StreamEncoded(_ []byte, rows int) (bool, error) {
	s.relayed++
	return true, s.take(rows)
}

// queryExec returns e's one executor, or nil.
func queryExec(e *Engine) *executor {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ex := range e.execs {
		return ex
	}
	return nil
}

func (c *shipCredit) parked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.waiting
}

// creditHarness publishes an answer several windows larger than the
// cluster's total credit, starts a streamed scan into a held sink, and
// returns once every fragment is parked on its window — with the query's
// executors, the initiator's first. With relay set the sink takes remote
// blocks encoded.
func creditHarness(t *testing.T, ctx context.Context, held *heldSink, relay bool) (*harness, []*executor, chan error, int) {
	t.Helper()
	const members = 4
	total := 4 * members * shipCreditRows
	h := newHarness(t, members)
	h.create(schemaFD())
	h.publish("FD", genFD(total, rand.New(rand.NewSource(11))))
	var sink StreamSink = held
	if relay {
		sink = heldFrameSink{held}
	}
	done := make(chan error, 1)
	go func() {
		_, err := h.engines[0].Run(ctx, &Plan{Root: &ScanNode{Relation: "FD"}}, Options{Sink: sink})
		done <- err
	}()
	select {
	case <-held.entered:
	case err := <-done:
		t.Fatalf("query ended before its sink was called: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var execs []*executor
		parked := 0
		for _, e := range h.engines {
			if ex := queryExec(e); ex != nil {
				execs = append(execs, ex)
				if ex.shipper.credit.parked() > 0 {
					parked++
				}
			}
		}
		if parked == members {
			return h, execs, done, total
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d fragments parked on credit; the rest kept shipping", parked, members)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShipCreditStopsFragments: while the sink is held, every fragment of a
// streamed scan stops — its pass waits on credit, shipping nothing beyond
// its window and holding nothing beyond one block, and not holding its
// store either: a publish still commits — and once the sink is released
// the answer completes, whole.
func TestShipCreditStopsFragments(t *testing.T) {
	for _, relay := range []bool{false, true} {
		t.Run(map[bool]string{false: "decoded", true: "relayed"}[relay], func(t *testing.T) {
			shipCreditStopsFragments(t, relay)
		})
	}
}

func shipCreditStopsFragments(t *testing.T, relay bool) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sink := newHeldSink(ctx)
	h, execs, done, total := creditHarness(t, ctx, sink, relay)
	if !execs[0].credit {
		t.Fatal("a streamed exchange-free scan runs without ship credit")
	}
	shipped := func() (n uint64) {
		for _, ex := range execs {
			n += ex.stats.shipped.Load()
		}
		return n
	}
	before := shipped()
	time.Sleep(20 * time.Millisecond)
	if after := shipped(); after != before {
		t.Fatalf("fragments shipped %d more rows while parked", after-before)
	}
	if bound := uint64(len(execs) * shipCreditRows); before > bound {
		t.Fatalf("%d rows shipped against a held sink; the windows allow %d", before, bound)
	}
	for _, ex := range execs {
		ex.shipper.mu.Lock()
		held := 0
		if ex.shipper.pending != nil {
			held = ex.shipper.pending.cols.N
		}
		ex.shipper.mu.Unlock()
		if held > flushRows {
			t.Fatalf("a parked fragment holds %d rows pending", held)
		}
	}
	pctx, pcancel := context.WithTimeout(ctx, 2*time.Second)
	defer pcancel()
	ups := []vstore.Update{{Op: vstore.OpInsert, Row: tuple.Row{tuple.I(-1), tuple.I(0), tuple.F(0)}}}
	if _, err := h.local.Node(1).Publish(pctx, "FD", ups); err != nil {
		t.Fatalf("publish beside parked fragments: %v", err)
	}
	close(sink.release)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sink.rows != total {
		t.Fatalf("sink took %d rows, want %d", sink.rows, total)
	}
	if relay && sink.relayed == 0 {
		t.Fatal("no block was relayed")
	}
}

// TestShipCreditParkedFragmentIsReleased: a fragment parked on credit gives
// up within 2 s when the query is cancelled, when its initiator — the
// consumer that owes it the credit — dies, or when the cluster shuts down
// under it; and the query itself ends.
func TestShipCreditParkedFragmentIsReleased(t *testing.T) {
	for _, tc := range []string{"cancelled", "initiator dies", "cluster shuts down",
		"cancelled relayed", "initiator dies relayed", "cluster shuts down relayed"} {
		t.Run(tc, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			sink := newHeldSink(ctx)
			relay := strings.HasSuffix(tc, " relayed")
			tc = strings.TrimSuffix(tc, " relayed")
			h, execs, done, _ := creditHarness(t, ctx, sink, relay)
			start := time.Now()
			switch tc {
			case "cancelled":
				cancel()
			case "initiator dies":
				h.local.Kill(h.local.Node(0).ID())
			default:
				h.local.Shutdown()
			}
			for _, ex := range execs[1:] {
				for ex.shipper.credit.parked() > 0 {
					if time.Since(start) > 2*time.Second {
						t.Fatalf("a fragment of node %s is still parked on credit", ex.self())
					}
					time.Sleep(time.Millisecond)
				}
			}
			cancel() // the dead initiator's query: its sink returns, Run ends
			select {
			case err := <-done:
				if tc == "cancelled" && !errors.Is(err, context.Canceled) {
					t.Fatalf("Run after cancel: %v, want %v", err, context.Canceled)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Run did not return within 2 s")
			}
		})
	}
}
