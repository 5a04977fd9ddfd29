package bench

import (
	"math"
	"slices"
	"strings"
	"testing"

	"orchestra"
	"orchestra/internal/engine"
	"orchestra/internal/ring"
)

// runOne regenerates one figure at micro scale.
func runOne(t *testing.T, id string) *Figure {
	t.Helper()
	figs, err := Run(microConfig(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != id {
		t.Fatalf("Run(%s) returned %d figures", id, len(figs))
	}
	return figs[0]
}

// countClusters counts the clusters the harness builds until the test ends.
func countClusters(t *testing.T) *int {
	built := new(int)
	build := newCluster
	newCluster = func(n int, opts ...orchestra.Option) (*orchestra.Cluster, error) {
		*built++
		return build(n, opts...)
	}
	t.Cleanup(func() { newCluster = build })
	return built
}

// microConfig keeps harness self-tests fast.
func microConfig() Config {
	return Config{
		STBTuples: 200,
		TPCHScale: 0.001,
		Nodes:     []int{1, 2},
	}.WithDefaults()
}

func TestFig2(t *testing.T) {
	fig := runOne(t, "fig2")
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	// Balanced must be uniform; Pastry-style skewed.
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if s.Label == "balanced" && p.Y != 1 {
				t.Fatalf("balanced skew %f at n=%f", p.Y, p.X)
			}
			if s.Label == "pastry" && p.Y <= 1 {
				t.Fatalf("pastry unexpectedly uniform at n=%f", p.X)
			}
		}
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fig := runOne(t, "fig7")
	if len(fig.Series) != 5 {
		t.Fatalf("want 5 scenarios, got %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: %d points", s.Label, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s: non-positive time %f", s.Label, p.Y)
			}
		}
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	fig := runOne(t, "fig10")
	if len(fig.Series) != 5 {
		t.Fatalf("want 5 queries, got %d", len(fig.Series))
	}
}

func TestUnknownFigure(t *testing.T) {
	built := countClusters(t)
	if _, err := Run(microConfig(), "fig7", "fig999"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if *built != 0 {
		t.Fatalf("%d clusters built before an unknown figure was refused", *built)
	}
}

func TestRenderAndMarkdown(t *testing.T) {
	fig := runOne(t, "fig2")
	var sb strings.Builder
	Render(&sb, fig)
	if !strings.Contains(sb.String(), "fig2") || !strings.Contains(sb.String(), "balanced") {
		t.Fatalf("render output:\n%s", sb.String())
	}
	md := Markdown(fig)
	if !strings.Contains(md, "| nodes |") {
		t.Fatalf("markdown output:\n%s", md)
	}
}

func TestFigureIDsComplete(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 19 {
		t.Fatalf("got %d figure ids", len(ids))
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
	for _, want := range []string{
		"fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "lat",
		"fig18", "fig19", "fig20", "fig21", "ovh", "fdet",
	} {
		if !seen[want] {
			t.Fatalf("missing id %s", want)
		}
	}
}

// TestSweepRunsOnce asks for the three figures of one sweep (and one of
// them twice): the sweep builds one cluster per node count, once, and
// each figure plots its own metric of the same measurements.
func TestSweepRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := microConfig()
	built := countClusters(t)
	figs, err := Run(cfg, "fig7", "fig8", "fig9", "fig8")
	if err != nil {
		t.Fatal(err)
	}
	if *built != len(cfg.Nodes) {
		t.Fatalf("built %d clusters for a %d-point sweep", *built, len(cfg.Nodes))
	}
	var ids []string
	for _, f := range figs {
		ids = append(ids, f.ID)
	}
	if !slices.Equal(ids, []string{"fig7", "fig8", "fig9", "fig8"}) {
		t.Fatalf("figures %v", ids)
	}
	if figs[1] != figs[3] {
		t.Fatal("a figure asked for twice was made twice")
	}
	for _, f := range figs[:3] {
		if f.Title != figs[0].Title || f.XLabel != "nodes" || len(f.Series) != 5 {
			t.Fatalf("%s: title %q, x %q, %d series", f.ID, f.Title, f.XLabel, len(f.Series))
		}
	}
	// Whole-cluster traffic is at least the busiest node's.
	for s := range figs[1].Series {
		for p, total := range figs[1].Series[s].Points {
			if node := figs[2].Series[s].Points[p]; total.Y < node.Y {
				t.Fatalf("%s at %g nodes: %g MB in all, %g MB at one node",
					figs[1].Series[s].Label, total.X, total.Y, node.Y)
			}
		}
	}
}

// TestModeledTime pins the completion-time model to the optimizer's
// rates: the busiest node's work plus the busiest node's link time, each
// node's link time taken at the larger of its two directions.
func TestModeledTime(t *testing.T) {
	res := &orchestra.Result{PerNode: map[string]engine.NodeStats{
		"a": {Scanned: 1000, ExchSent: 100, ExchRecv: 50, Shipped: 10},
		"b": {Scanned: 10},
	}}
	sent := map[ring.NodeID]int64{"a": 1e6, "b": 3e6}
	recv := map[ring.NodeID]int64{"a": 2e6}
	want := (1000*2e-6 + 160*1e-6) + 3e6/100e6
	if got := modeledTime(res, sent, recv); math.Abs(got-want) > 1e-12 {
		t.Fatalf("modeled %g s, want %g", got, want)
	}
}
