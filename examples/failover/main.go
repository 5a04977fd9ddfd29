// Failover: demonstrate reliable query execution under node failure — the
// paper's headline capability (§V). A node is killed in the middle of a
// distributed join; the query completes with the exact answer set anyway,
// first by incremental recomputation of only the lost state (§V-D), then
// by full restart for comparison. A third act stops a durable cluster
// entirely and restarts it from its write-ahead logs and snapshots: the
// published data, schemas, and epoch all survive process death. A fourth
// act moves the failure to the wire: two served endpoints are fronted by
// fault-injecting TCP proxies, one endpoint is degraded and then
// hard-reset mid-workload, and the smart client completes every
// idempotent query anyway by retrying onto the surviving endpoint. The
// fifth act is the replica-repair story: one durable replica is killed,
// a backlog is published while it is down, and on restart it catches up
// by replaying the WAL delta shipped from its peers — no state transfer
// — then serves the exact answer.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"orchestra"
	"orchestra/client"
	"orchestra/internal/netfault"
)

const query = `
SELECT region, COUNT(*) AS orders, SUM(amount) AS revenue
FROM orders, customers
WHERE orders.cust = customers.id
GROUP BY region
ORDER BY region`

func load(c *orchestra.Cluster) {
	check(c.CreateRelation(
		orchestra.NewSchema("customers", "id:int", "region:string").Key("id")))
	check(c.CreateRelation(
		orchestra.NewSchema("orders", "oid:int", "cust:int", "amount:float").Key("oid")))

	regions := []string{"east", "west", "north", "south"}
	var customers orchestra.Rows
	for i := 0; i < 400; i++ {
		customers = append(customers, orchestra.Row{i, regions[i%len(regions)]})
	}
	var orders orchestra.Rows
	for i := 0; i < 8000; i++ {
		orders = append(orders, orchestra.Row{i, i % 400, float64(i%97) + 0.5})
	}
	_, err := c.Publish("customers", customers)
	check(err)
	_, err = c.Publish("orders", orders)
	check(err)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func run(mode orchestra.RecoveryMode, label string) {
	c, err := orchestra.NewCluster(6)
	check(err)
	defer c.Shutdown()
	load(c)

	// Reference answer on the healthy cluster.
	ref, err := c.Query(query)
	check(err)

	// Kill a node shortly after the query starts.
	go func() {
		time.Sleep(2 * time.Millisecond)
		c.Kill(3)
		fmt.Printf("  [%s] node 3 killed mid-query\n", label)
	}()
	start := time.Now()
	res, err := c.QueryOpts(query, orchestra.QueryOptions{Recovery: mode})
	check(err)
	elapsed := time.Since(start)

	// The answer must be complete and duplicate-free despite the failure.
	if len(res.Rows) != len(ref.Rows) {
		log.Fatalf("[%s] row count changed after failure: %d vs %d",
			label, len(res.Rows), len(ref.Rows))
	}
	for i := range res.Rows {
		if !res.Rows[i].Equal(ref.Rows[i]) {
			log.Fatalf("[%s] row %d differs: %v vs %v", label, i, res.Rows[i], ref.Rows[i])
		}
	}
	fmt.Printf("  [%s] completed in %s (phases=%d, restarts=%d) — exact answer preserved\n",
		label, elapsed.Round(time.Millisecond), res.Phases, res.Restarts)
	for _, row := range res.Rows {
		fmt.Printf("    %-6s %6d orders  %10.2f revenue\n",
			row[0].Str, row[1].AsInt(), row[2].AsFloat())
	}
}

// runDurable publishes into a durable cluster, stops every node, then
// brings the whole cluster back from disk and re-runs the query: the
// answer, the schemas, and the epoch must all survive. (The crash-stop
// variant of this — SIGKILL instead of an orderly stop — runs in the
// repo's kill-and-restart e2e test; group-commit fsyncs make the two
// equivalent for acknowledged publishes.)
func runDurable() {
	dir, err := os.MkdirTemp("", "orchestra-failover")
	check(err)
	defer os.RemoveAll(dir)

	c, err := orchestra.NewCluster(6,
		orchestra.WithDataDir(dir), orchestra.WithSyncMode(orchestra.SyncAlways))
	check(err)
	load(c)
	ref, err := c.Query(query)
	check(err)
	epoch := c.CurrentEpoch()
	c.Shutdown()
	fmt.Printf("  [durable] cluster stopped at epoch %d; restarting from %s\n", epoch, dir)

	t0 := time.Now()
	c2, err := orchestra.NewCluster(6, orchestra.WithDataDir(dir))
	check(err)
	defer c2.Shutdown()
	if got := c2.CurrentEpoch(); got < epoch {
		log.Fatalf("[durable] recovered epoch %d < published epoch %d", got, epoch)
	}
	res, err := c2.Query(query)
	check(err)
	if len(res.Rows) != len(ref.Rows) {
		log.Fatalf("[durable] row count changed across restart: %d vs %d",
			len(res.Rows), len(ref.Rows))
	}
	for i := range res.Rows {
		if !res.Rows[i].Equal(ref.Rows[i]) {
			log.Fatalf("[durable] row %d differs: %v vs %v", i, res.Rows[i], ref.Rows[i])
		}
	}
	if d, ok := c2.DurabilityStats(0); ok {
		fmt.Printf("  [durable] recovered in %s (node 0 replayed %d wal records) — answer identical\n",
			time.Since(t0).Round(time.Millisecond), d.ReplayedRecords)
	}
}

// runProxied shows the serving layer's fault tolerance from the
// client's side. Two endpoints of the same cluster sit behind
// fault-injecting TCP proxies (internal/netfault); the client's member
// list is pinned to the proxy addresses so every byte crosses the fault
// injector. Mid-workload endpoint A first gains latency, then has every
// connection aborted with RST and stops accepting — a crashed machine,
// as the wire sees it. Queries are idempotent, so the client re-routes
// and retries them under its backoff policy: the workload finishes with
// zero failures and the chaos is visible only in the failover counters.
func runProxied() {
	c, err := orchestra.NewCluster(4)
	check(err)
	defer c.Shutdown()
	load(c)
	ref, err := c.Query(query)
	check(err)

	srvA, err := c.Serve("127.0.0.1:0", orchestra.ServeOptions{Node: 0})
	check(err)
	defer srvA.Close()
	srvB, err := c.Serve("127.0.0.1:0", orchestra.ServeOptions{Node: 1})
	check(err)
	defer srvB.Close()
	pA, err := netfault.New("127.0.0.1:0", srvA.Addr())
	check(err)
	defer pA.Close()
	pB, err := netfault.New("127.0.0.1:0", srvB.Addr())
	check(err)
	defer pB.Close()

	// Membership refresh is disabled: the servers advertise their direct
	// addresses, and adopting those would let the client route around
	// the proxies.
	cl, err := client.Dial(pA.Addr(), client.Options{
		Endpoints:       []string{pB.Addr()},
		RefreshInterval: -1,
		Retry: client.RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 5 * time.Millisecond,
		},
	})
	check(err)
	defer cl.Close()

	ctx := context.Background()
	const n = 40
	for i := 0; i < n; i++ {
		switch i {
		case n / 4:
			pA.SetFaults(netfault.Faults{Delay: 10 * time.Millisecond})
			fmt.Println("  [proxied] endpoint A degraded (+10ms injected latency)")
		case n / 2:
			pA.ResetAll() // RST every live and pooled connection
			pA.Pause()    // and refuse new ones
			fmt.Println("  [proxied] endpoint A reset and unreachable")
		}
		res, err := cl.Query(ctx, query)
		if err != nil {
			log.Fatalf("[proxied] idempotent query %d failed despite retries: %v", i, err)
		}
		if len(res.Rows) != len(ref.Rows) {
			log.Fatalf("[proxied] query %d: %d rows, want %d", i, len(res.Rows), len(ref.Rows))
		}
	}
	check(pA.Resume())
	ctr := cl.Counters()
	fmt.Printf("  [proxied] %d/%d queries exact across degradation and reset — "+
		"%d attempts, %d retries, %d failovers, %d dial errors\n",
		n, n, ctr.Attempts, ctr.Retries, ctr.Failovers, ctr.DialErrors)
}

// runRejoin kills one durable replica, publishes a backlog while it is
// down, then restarts it. The node recovers its own store from WAL +
// snapshot and pulls exactly the records it missed from its replica
// peers over WAL shipping (the `walship` op); because every peer still
// retains the log suffix past the node's durable marker, no state
// transfer is needed. The repair counters make the
// mechanism visible.
func runRejoin() {
	dir, err := os.MkdirTemp("", "orchestra-rejoin")
	check(err)
	defer os.RemoveAll(dir)

	c, err := orchestra.NewCluster(4,
		orchestra.WithDataDir(dir),
		orchestra.WithReplication(3),
		orchestra.WithAntiEntropy(100*time.Millisecond))
	check(err)
	defer c.Shutdown()
	// Establish the repair baselines while every store is empty, so the
	// restart below is pure WAL catch-up rather than a first contact.
	for i := 0; i < 4; i++ {
		check(c.RepairNode(i))
	}
	load(c)

	c.Kill(3)
	fmt.Println("  [rejoin] node 3 killed; publishing a backlog while it is down")
	var backlog orchestra.Rows
	for i := 8000; i < 12000; i++ {
		backlog = append(backlog, orchestra.Row{i, i % 400, float64(i%97) + 0.5})
	}
	_, err = c.Publish("orders", backlog)
	check(err)
	ref, err := c.QueryOpts(query, orchestra.QueryOptions{Recovery: orchestra.RecoverIncremental})
	check(err)

	t0 := time.Now()
	check(c.RestartNode(3))
	st := c.ReplStats(3)
	fmt.Printf("  [rejoin] node 3 back in %s: %d records caught up over WAL shipping, "+
		"%d state transfers, lag %d\n",
		time.Since(t0).Round(time.Millisecond),
		st.CatchUpRecords, st.StateTransfers, st.MaxLag)
	if st.StateTransfers != 0 {
		log.Fatalf("[rejoin] expected pure WAL catch-up, got %d state transfers", st.StateTransfers)
	}
	res, err := c.Query(query)
	check(err)
	if len(res.Rows) != len(ref.Rows) {
		log.Fatalf("[rejoin] row count changed across rejoin: %d vs %d",
			len(res.Rows), len(ref.Rows))
	}
	for i := range res.Rows {
		if !res.Rows[i].Equal(ref.Rows[i]) {
			log.Fatalf("[rejoin] row %d differs: %v vs %v", i, res.Rows[i], ref.Rows[i])
		}
	}
	fmt.Printf("  [rejoin] answer exact over %d orders after rejoin\n", 12000)
}

func main() {
	fmt.Println("incremental recomputation (§V-D: purge tainted state, replay, restart leaves):")
	run(orchestra.RecoverIncremental, "incremental")

	fmt.Println("\nfull restart over the survivors:")
	run(orchestra.RecoverRestart, "restart")

	fmt.Println("\ndurable stores: stop the whole cluster, restart it from disk:")
	runDurable()

	fmt.Println("\nwire faults: proxied endpoint degraded, then reset mid-workload:")
	runProxied()

	fmt.Println("\nreplica rejoin: kill a durable replica, publish a backlog, catch up over WAL shipping:")
	runRejoin()
}
