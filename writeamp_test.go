package orchestra

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestPublishWriteAmplification is the mechanism-enforced form of the
// README's storage claim: a publish writes what changed. On a durable
// 3-node cluster seeded with 20 000 rows, 40 publishes of 250 new keys —
// a few entries into every index page — must cost under 40 WAL bytes per
// user byte across the three nodes (the pre-delta layout cost 460), and a
// late publish must cost about what an early one did.
//
// The one-publish seed leaves every page nearly full, so the split of each
// page in two — a full rewrite of the whole index, once — falls in the
// first few publishes and is inside the total; from the fifth publish on
// the pages have room and a publish is deltas only, which is what the
// 5th-against-40th comparison holds flat. (Chains reach the depth that
// compacts them only after vstore.MaxDeltaDepth publishes; that amortized
// cost is in the benchmark's longer run, not here.)
func TestPublishWriteAmplification(t *testing.T) {
	const (
		seeded              = 20000
		publishes, perBatch = 40, 250
	)
	c, err := NewCluster(3, WithDataDir(t.TempDir()), WithSyncMode(SyncNever))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.CreateRelation(NewSchema("load", "k:string", "grp:int", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	next := 0
	publish := func(n int) {
		t.Helper()
		rows := make(Rows, n)
		for i := range rows {
			rows[i] = []any{fmt.Sprintf("k%06d", next), next % 17, next * 7}
			next++
		}
		if _, err := c.Publish("load", rows); err != nil {
			t.Fatal(err)
		}
	}
	walBytes := func() (sum int64) {
		for i := 0; i < 3; i++ {
			d, ok := c.DurabilityStats(i)
			if !ok {
				t.Fatal("node is not durable")
			}
			sum += d.WALBytes
		}
		return sum
	}
	publish(seeded)
	const userBytes = perBatch * (len("k000000") + 16) // key + two ints, as benchmark/ counts a row
	var cost [publishes]int64
	var took [publishes]time.Duration
	start := walBytes()
	for j := range cost {
		before, t0 := walBytes(), time.Now()
		publish(perBatch)
		cost[j], took[j] = walBytes()-before, time.Since(t0)
	}
	total := walBytes() - start
	t.Logf("WAL bytes per publish: %v", cost)
	t.Logf("publish latency: %v", took)
	if ratio := float64(total) / float64(publishes*userBytes); ratio >= 40 {
		t.Errorf("%.1f WAL bytes per user byte over %d publishes, want < 40", ratio, publishes)
	} else {
		t.Logf("%.1f WAL bytes per user byte", ratio)
	}
	if early, late := cost[4], cost[publishes-1]; float64(late) > 1.25*float64(early) {
		t.Errorf("publish %d wrote %d WAL bytes, more than 1.25x the %d of publish 5", publishes, late, early)
	}
	res, err := c.Query("SELECT COUNT(*) FROM load")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I64 != int64(next) {
		t.Fatalf("COUNT(*) = %v, %v; want %d", res, err, next)
	}

	// The publish-path counters sit in the node's registry, beside its
	// WAL metrics: node 0 published everything above.
	var buf bytes.Buffer
	c.nodeRegistry(0).WritePrometheus(&buf)
	for _, name := range []string{
		`orchestra_publish_pages_total{kind="delta"}`, `orchestra_publish_pages_total{kind="full"}`,
		"orchestra_publish_page_bytes_total", "orchestra_publish_pages_resolved_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Errorf("node registry has no %s:\n%s", name, buf.String())
		}
	}
}
