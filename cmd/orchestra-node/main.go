// Command orchestra-node runs one ORCHESTRA storage/query node over real
// TCP — a laptop-scale multi-process deployment of the same stack the
// simulated experiments exercise. Every process is given the full member
// list (the complete routing table of §III-B); identities are the listen
// addresses.
//
// Start a 3-node cluster in three shells:
//
//	orchestra-node -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	orchestra-node -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	orchestra-node -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//
// Then drive any node through its REPL on stdin:
//
//	create inv item:string qty:int
//	publish inv bolt 90
//	publish inv nut 120
//	query SELECT item, qty FROM inv WHERE qty > 100
//
// With -serve ADDR the node additionally exposes the wire protocol of
// internal/server on ADDR, so external processes can create, publish,
// and query through the orchestra/client package instead of stdin. -maxq
// bounds concurrent query executions on that endpoint.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/server"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7001", "listen address (also this node's identity)")
	peers := flag.String("peers", "", "comma-separated full member list (must include -listen)")
	replication := flag.Int("replication", 3, "total copies of each data item")
	dataDir := flag.String("data", "", "persist the local store to this directory (default: memory)")
	syncMode := flag.String("sync", "always", "with -data: fsync policy — always (group-commit fsync per write), interval (periodic), never (OS page cache)")
	pingEvery := flag.Duration("ping", 2*time.Second, "hung-peer probe interval (0 disables)")
	serveAddr := flag.String("serve", "", "also serve the client wire protocol on this address")
	advertise := flag.String("advertise", "", "served endpoint: address advertised to clients in health responses (default: -serve)")
	servePeers := flag.String("serve-peers", "", "served endpoint: comma-separated client addresses of the whole deployment to advertise for failover")
	maxQ := flag.Int("maxq", 0, "served endpoint: max concurrent query executions (0 = 2×GOMAXPROCS)")
	opsAddr := flag.String("ops", "", "served endpoint: ops HTTP address for /metrics, /debug/vars, /debug/pprof (requires -serve)")
	slowMs := flag.Int64("slowms", 0, "served endpoint: slow-query log threshold in ms (0 = 250ms default, negative disables)")
	repairEvery := flag.Duration("repair", 30*time.Second, "anti-entropy repair interval: periodically reconcile with one replica peer and pull any missed WAL suffix (0 disables)")
	retainBytes := flag.Int64("retain", 0, "with -data: archived WAL bytes kept for replica catch-up (0 = 32 MiB default)")
	flag.Parse()

	members := strings.Split(*peers, ",")
	ids := make([]ring.NodeID, 0, len(members))
	self := false
	for _, m := range members {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if m == *listen {
			self = true
		}
		ids = append(ids, ring.NodeID(m))
	}
	if !self {
		log.Fatalf("orchestra-node: -peers must include the -listen address %s", *listen)
	}

	table, err := ring.New(ids, ring.Balanced, *replication)
	if err != nil {
		log.Fatal(err)
	}
	ep, err := transport.ListenTCP(*listen)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	store := kvstore.NewMemory()
	if *dataDir != "" {
		var mode kvstore.SyncMode
		switch *syncMode {
		case "always":
			mode = kvstore.SyncAlways
		case "interval":
			mode = kvstore.SyncInterval
		case "never":
			mode = kvstore.SyncNever
		default:
			log.Fatalf("orchestra-node: -sync must be always, interval, or never (got %q)", *syncMode)
		}
		t0 := time.Now()
		store, err = kvstore.Open(*dataDir, kvstore.Options{Sync: mode, Registry: reg, RetainBytes: *retainBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
		if d, ok := store.DurabilityStats(); ok {
			log.Printf("recovered %s: epoch %d, generation %d, %d wal records replayed in %s (sync=%s)",
				*dataDir, d.Epoch, d.Generation, d.ReplayedRecords,
				time.Since(t0).Round(time.Millisecond), mode)
		}
	}
	node := cluster.NewNode(ep, store, table, cluster.Config{Replication: *replication})
	backend := server.NewNodeBackend(node, engine.New(node))
	node.Gossip().Start(time.Second)
	if *pingEvery > 0 {
		node.StartPinger(*pingEvery, 3**pingEvery)
	}
	node.OnPeerDown(func(id ring.NodeID) {
		log.Printf("peer down: %s", id)
	})
	defer node.Close()
	if *repairEvery > 0 && len(ids) > 1 {
		// One immediate pass catches a rejoining node up from its peers'
		// retained WAL (or a state transfer when they truncated past its
		// position); the background loop then keeps replicas converged.
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			if err := node.Repair(ctx); err != nil {
				log.Printf("startup repair (will retry in background): %v", err)
			} else if st := node.ReplStats(); st.CatchUpRecords > 0 || st.StateTransfers > 0 {
				log.Printf("caught up from peers: %d records shipped, %d state transfers, %s",
					st.CatchUpRecords, st.StateTransfers, time.Duration(st.LastCatchUpUs)*time.Microsecond)
			}
		}()
		node.StartRepair(*repairEvery)
	}

	if *serveAddr != "" {
		// The member list this endpoint advertises: its own advertised
		// address plus the deployment-wide list, so any one reachable
		// endpoint teaches a smart client every endpoint it may fail over to.
		self := *advertise
		if self == "" {
			self = *serveAddr
		}
		peers := server.MergePeers([]string{self}, strings.Split(*servePeers, ","))
		srv, err := server.Start(*serveAddr, backend,
			server.Config{
				MaxConcurrentQueries: *maxQ,
				SlowQueryThreshold:   time.Duration(*slowMs) * time.Millisecond,
				Registry:             reg,
				Peers:                func() []string { return peers },
			})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		log.Printf("serving clients on %s (max %d concurrent queries)",
			srv.Addr(), srv.Stats().MaxConcurrentQueries)
		if *opsAddr != "" {
			a, err := srv.ServeOps(*opsAddr)
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("serving ops on http://%s (/metrics, /debug/vars, /debug/pprof)", a)
		}
		// SIGTERM drains: refuse new work with a re-routable error,
		// finish what is in flight, then exit — a rolling restart loses
		// nothing that was acknowledged.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		go func() {
			s := <-sig
			log.Printf("%s: draining served endpoint", s)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("drain severed in-flight work: %v", err)
				os.Exit(1)
			}
			log.Printf("drained clean")
			os.Exit(0)
		}()
	} else if *opsAddr != "" {
		log.Fatalf("orchestra-node: -ops requires -serve")
	}

	log.Printf("node %s up; %d members, replication %d", *listen, len(ids), *replication)
	repl(backend)
}

// repl drives the node interactively through the backend the served
// endpoint uses: create / publish / query / epoch.
func repl(b *server.NodeBackend) {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("commands: create <rel> <col:type>... | publish <rel> <vals>... | query <sql> | epoch | quit")
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		switch fields[0] {
		case "quit", "exit":
			cancel()
			return
		case "epoch":
			fmt.Println(b.Epoch())
		case "create":
			if len(fields) < 3 {
				fmt.Println("usage: create <rel> <col:type>...")
				break
			}
			if _, err := b.Create(ctx, &wire.CreateRequest{Relation: fields[1], Columns: fields[2:]}); err != nil {
				fmt.Println("error:", err)
			}
		case "publish":
			if len(fields) < 3 {
				fmt.Println("usage: publish <rel> <vals>...")
				break
			}
			if e, err := publishRow(ctx, b, fields[1], fields[2:]); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("epoch", e)
			}
		case "query":
			start := time.Now()
			var out printSink
			// Collected, not streamed: a peer failure mid-query restarts.
			tail, _, err := b.Query(ctx, strings.TrimSpace(strings.TrimPrefix(line, "query")),
				engine.Options{Recovery: engine.RecoverRestart}, false, &out)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("-- %d rows in %s (epoch %d)\n%s\n", out, time.Since(start).Round(time.Microsecond), tail.Epoch, tail.Plan)
		default:
			fmt.Println("unknown command:", fields[0])
		}
		cancel()
	}
}

// publishRow parses vals by the relation's column types, as the schema op
// reports them, and publishes the row.
func publishRow(ctx context.Context, b *server.NodeBackend, rel string, vals []string) (tuple.Epoch, error) {
	sr, err := b.Catalog(ctx, rel)
	if err != nil {
		return 0, err
	}
	cols, err := server.ParseColumns(sr.Relations[0].Columns)
	if err != nil {
		return 0, err
	}
	if len(vals) != len(cols) {
		return 0, fmt.Errorf("want %d values", len(cols))
	}
	row := make(tuple.Row, len(vals))
	for i, v := range vals {
		switch cols[i].Type {
		case tuple.Int64:
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return 0, err
			}
			row[i] = tuple.I(n)
		case tuple.Float64:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, err
			}
			row[i] = tuple.F(f)
		default:
			row[i] = tuple.S(v)
		}
	}
	return b.Publish(ctx, &wire.PublishRequest{Relation: rel, TypedRows: []tuple.Row{row}})
}

// printSink prints an answer's rows and counts them.
type printSink int

func (p *printSink) Columns(cols []string) { fmt.Println(" ", cols) }

func (p *printSink) StreamCols(b *tuple.Batch) error {
	for _, r := range b.Rows() {
		fmt.Println(" ", r)
	}
	*p += printSink(b.N)
	return nil
}
