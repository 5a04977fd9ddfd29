package orchestra_test

// Rejoin end-to-end test: a real three-process cluster (one cluster.Node
// per process over TCP, each with a durable store and an anti-entropy
// loop) runs an idempotent query workload while one member is SIGKILLed
// mid-workload, a backlog is published without it, and the process is
// restarted from its data directory. The rejoined node must reach the
// cluster's epoch by replaying its peers' shipped WAL suffix — no state
// transfer — while the workload sees zero failures, and
// its own endpoint must then serve correct answers. Set REJOIN_BACKLOG
// to size the missed backlog (rows); CRASH_BENCH_OUT records the
// catch-up time.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"orchestra/client"
	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/ring"
	"orchestra/internal/server"
	"orchestra/internal/transport"
	"orchestra/internal/wire"
)

const (
	rejoinChildEnv  = "ORCHESTRA_REJOIN_CHILD"
	rejoinListenEnv = "ORCHESTRA_REJOIN_LISTEN"
	rejoinPeersEnv  = "ORCHESTRA_REJOIN_PEERS"
	rejoinDataEnv   = "ORCHESTRA_REJOIN_DATA"
	rejoinAddrEnv   = "ORCHESTRA_REJOIN_ADDRFILE"
)

// TestRejoinNodeChild is the re-exec target, not a test: one storage
// node of a real TCP cluster, serving clients on an ephemeral port.
// Skipped in normal runs.
func TestRejoinNodeChild(t *testing.T) {
	if os.Getenv(rejoinChildEnv) == "" {
		t.Skip("re-exec child only")
	}
	listen := os.Getenv(rejoinListenEnv)
	var ids []ring.NodeID
	for _, p := range strings.Split(os.Getenv(rejoinPeersEnv), ",") {
		if p = strings.TrimSpace(p); p != "" {
			ids = append(ids, ring.NodeID(p))
		}
	}
	table, err := ring.New(ids, ring.Balanced, 3)
	if err != nil {
		t.Fatalf("child table: %v", err)
	}
	ep, err := transport.ListenTCP(listen)
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	// SyncNever: the OS page cache survives a SIGKILL, which is the only
	// crash this test injects, and the workload publishes fast. Retention
	// is sized so even the benchmark-scale backlog (REJOIN_BACKLOG=50000)
	// stays within the peers' shipped logs — the point of the test is the
	// WAL catch-up path, not the truncation fallback.
	store, err := kvstore.Open(os.Getenv(rejoinDataEnv), kvstore.Options{
		Sync:        kvstore.SyncNever,
		RetainBytes: 512 << 20,
	})
	if err != nil {
		t.Fatalf("child store: %v", err)
	}
	node := cluster.NewNode(ep, store, table, cluster.Config{Replication: 3})
	eng := engine.New(node)
	node.Gossip().Start(200 * time.Millisecond)
	// A (re)joining node repairs before serving: at first boot this
	// initializes the per-peer markers while every store is still empty,
	// and at rejoin it replays the missed WAL suffix so the first answer
	// this node serves is already at the cluster's epoch. Peers may not
	// be up yet during the staggered initial start — the background
	// anti-entropy loop retries.
	rctx, rcancel := context.WithTimeout(context.Background(), time.Minute)
	if err := node.Repair(rctx); err != nil {
		fmt.Fprintf(os.Stderr, "child %s startup repair: %v\n", listen, err)
	}
	rcancel()
	node.StartRepair(300 * time.Millisecond)
	srv, err := server.Start("127.0.0.1:0", server.NewNodeBackend(node, eng), server.Config{})
	if err != nil {
		t.Fatalf("child serve: %v", err)
	}
	addrFile := os.Getenv(rejoinAddrEnv)
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(srv.Addr().String()), 0o644); err != nil {
		t.Fatalf("child addr file: %v", err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		t.Fatalf("child addr rename: %v", err)
	}
	select {} // serve until SIGKILL
}

// rejoinChild is one re-exec'd node process.
type rejoinChild struct {
	cmd       *exec.Cmd
	serveAddr string
	done      chan struct{}
}

func startRejoinChild(t *testing.T, idx int, listen, peers, data, addrFile string) *rejoinChild {
	t.Helper()
	os.Remove(addrFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestRejoinNodeChild$")
	cmd.Env = append(os.Environ(),
		rejoinChildEnv+"=1",
		rejoinListenEnv+"="+listen,
		rejoinPeersEnv+"="+peers,
		rejoinDataEnv+"="+data,
		rejoinAddrEnv+"="+addrFile)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childSysProcAttr()
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child %d: %v", idx, err)
	}
	ch := &rejoinChild{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(ch.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			ch.serveAddr = string(b)
			return ch
		}
		select {
		case <-ch.done:
			t.Fatalf("child %d exited before serving", idx)
		default:
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatalf("child %d never published its address", idx)
	return nil
}

func TestRejoinCatchUp(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics required")
	}
	if testing.Short() {
		t.Skip("re-exec e2e")
	}
	backlog := 2000
	if s := os.Getenv("REJOIN_BACKLOG"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad REJOIN_BACKLOG %q", s)
		}
		backlog = n
	}
	dir := t.TempDir()
	clusterAddrs := make([]string, 3)
	for i := range clusterAddrs {
		clusterAddrs[i] = reservePort(t)
	}
	peers := strings.Join(clusterAddrs, ",")

	children := make([]*rejoinChild, 3)
	for i := range children {
		ch := startRejoinChild(t, i, clusterAddrs[i], peers,
			filepath.Join(dir, fmt.Sprintf("node%d", i)),
			filepath.Join(dir, fmt.Sprintf("serve%d", i)))
		children[i] = ch
		t.Cleanup(func() {
			ch.cmd.Process.Kill()
			<-ch.done
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cl, err := client.Dial(children[0].serveAddr, client.Options{
		Endpoints:   []string{children[1].serveAddr},
		DialTimeout: 2 * time.Second,
		Retry: client.RetryPolicy{
			MaxAttempts: 8,
			BaseBackoff: 15 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, "rejoin", []string{"id:int", "shard:int"}, "id"); err != nil {
		t.Fatalf("create: %v", err)
	}

	const batchRows = 500
	total := 0
	var wmu sync.Mutex // guards total (and the workload counters below)
	var lastEpoch uint64
	publish := func(batches int) {
		t.Helper()
		for b := 0; b < batches; b++ {
			rows := make([][]any, batchRows)
			for i := range rows {
				rows[i] = []any{int64(total + i), int64((total + i) % 7)}
			}
			bt := time.Now()
			e, err := cl.Publish(ctx, "rejoin", rows)
			if err != nil {
				t.Fatalf("publish: %v", err)
			}
			if d := time.Since(bt); d > 500*time.Millisecond {
				t.Logf("slow publish batch (epoch %d): %s", e, d)
			}
			lastEpoch = e
			wmu.Lock()
			total += batchRows
			wmu.Unlock()
		}
	}
	publish(2) // seed rows before any chaos

	// Idempotent closed-loop workload against the surviving endpoints:
	// any client-visible failure under the kill/rejoin chaos fails the
	// test. Answers are validated against the count published by then
	// (reads are snapshot-epoch pinned, so a count can trail but never
	// exceed the acknowledged total).
	var (
		failures []error
		queries  int
	)
	// Each probe is a full-table COUNT, so its cost grows with the rows
	// published; pace large-backlog (benchmark) runs so the probes stay a
	// background load instead of saturating the surviving nodes.
	probeEvery := 10 * time.Millisecond
	if backlog > 5000 {
		probeEvery = 250 * time.Millisecond
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := cl.Query(ctx, "SELECT COUNT(*) FROM rejoin")
				// Read the bound after the answer: batches acknowledged
				// while the query ran may be in it, plus the one in flight.
				wmu.Lock()
				limit := total
				wmu.Unlock()
				if err == nil {
					if len(res.Rows) != 1 {
						err = fmt.Errorf("bad shape: %v", res.Rows)
					} else if got := countValue(res.Rows[0][0]); got > limit+batchRows || got <= 0 {
						err = fmt.Errorf("impossible count %d (published %d)", got, limit)
					}
				}
				wmu.Lock()
				queries++
				if err != nil {
					failures = append(failures, err)
				}
				wmu.Unlock()
				time.Sleep(probeEvery)
			}
		}()
	}

	// SIGKILL node 2 mid-workload, then publish the backlog without it.
	time.Sleep(300 * time.Millisecond)
	if err := children[2].cmd.Process.Kill(); err != nil {
		t.Fatalf("kill child 2: %v", err)
	}
	<-children[2].done
	t.Logf("killed node 2; publishing %d-row backlog without it", backlog)
	publish((backlog + batchRows - 1) / batchRows)

	// Restart from the same data directory under the same identity and
	// time its way back to the cluster's epoch with zero shipping lag.
	t0 := time.Now()
	ch2 := startRejoinChild(t, 2, clusterAddrs[2], peers,
		filepath.Join(dir, "node2"),
		filepath.Join(dir, "serve2"))
	t.Cleanup(func() {
		ch2.cmd.Process.Kill()
		<-ch2.done
	})
	cl2, err := client.Dial(ch2.serveAddr)
	if err != nil {
		t.Fatalf("dial rejoined node: %v", err)
	}
	defer cl2.Close()

	var st *wire.StatusResponse
	deadline := time.Now().Add(3 * time.Minute)
	for {
		st, err = cl2.Status(ctx)
		if err == nil && st.Replication != nil &&
			st.Replication.MaxLag == 0 && st.Replication.CatchUpRecords > 0 &&
			st.Epoch >= lastEpoch {
			break
		}
		if time.Now().After(deadline) {
			var repl []byte
			if st != nil && st.Replication != nil {
				repl, _ = json.Marshal(st.Replication)
			}
			t.Fatalf("node 2 never caught up: err=%v repl=%s status=%+v", err, repl, st)
		}
		time.Sleep(50 * time.Millisecond)
	}
	catchUp := time.Since(t0)
	if st.Replication.StateTransfers != 0 {
		t.Errorf("rejoin fell back to %d state transfers; want pure WAL catch-up",
			st.Replication.StateTransfers)
	}
	t.Logf("node 2 caught up %d records in %s (epoch %d, lag 0)",
		st.Replication.CatchUpRecords, catchUp, st.Epoch)
	if rb, err := json.Marshal(st.Replication); err == nil {
		t.Logf("node 2 repair counters: %s", rb)
	}
	if res, err := cl.Query(ctx, "SELECT COUNT(*) FROM rejoin"); err == nil {
		t.Logf("surviving-node count: %v (want %d)", res.Rows[0][0], total)
	}

	// The rejoined node answers from its own endpoint, correctly.
	res, err := cl2.Query(ctx, "SELECT COUNT(*) FROM rejoin")
	if err != nil {
		t.Fatalf("query rejoined node: %v", err)
	}
	if got := countValue(res.Rows[0][0]); got != total {
		t.Errorf("rejoined node counts %d rows, want %d", got, total)
	}

	close(stop)
	wg.Wait()
	wmu.Lock()
	nq, nf := queries, len(failures)
	var first error
	if nf > 0 {
		first = failures[0]
	}
	wmu.Unlock()
	if nf > 0 {
		t.Errorf("%d of %d idempotent queries failed during kill/rejoin; first: %v", nf, nq, first)
	}
	if nq < 10 {
		t.Fatalf("only %d queries ran — not enough signal", nq)
	}
	t.Logf("%d queries, %d failures across kill, backlog, and rejoin", nq, nf)

	if out := os.Getenv("CRASH_BENCH_OUT"); out != "" {
		rec := map[string]any{
			"bench":             "rejoin_catch_up",
			"backlog_rows":      backlog,
			"caught_up_records": st.Replication.CatchUpRecords,
			"catch_up_ms":       catchUp.Milliseconds(),
			"epoch":             st.Epoch,
		}
		if b, err := json.Marshal(rec); err == nil {
			f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err == nil {
				fmt.Fprintln(f, string(b))
				f.Close()
			}
		}
	}
}
