package client_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"orchestra"
	"orchestra/client"
)

// TestPublishEndToEnd publishes everything Publish's doc promises and
// reads the rows back: ints into a float column (coerced server-side), a
// column mixing ints and floats (widened client-side, narrowed back for
// an int column), and the refusals — values the typed batch frame cannot
// carry are turned down before any connection is used, schema violations
// by the server, and neither tears the connection.
func TestPublishEndToEnd(t *testing.T) {
	_, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cl, err := client.Dial(srv.Addr(), client.Options{PoolSize: 1, RefreshInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Create(ctx, "bp", []string{"item:string", "qty:int", "price:float"}, "item"); err != nil {
		t.Fatal(err)
	}

	// The price column is fed ints — the server coerces them onto float.
	if _, err := cl.Publish(ctx, "bp", [][]any{
		{"bolt", 90, 10},
		{"nut", int64(120), 25},
	}); err != nil {
		t.Fatalf("publish: %v", err)
	}
	// Ints and floats mixed within the qty and price columns.
	if _, err := cl.Publish(ctx, "bp", [][]any{
		{"washer", 7, 1},
		{"screw", 55.0, 2.5},
	}); err != nil {
		t.Fatalf("mixed int/float publish: %v", err)
	}

	res, err := cl.Query(ctx, "SELECT item, qty, price FROM bp WHERE qty >= 0")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]any{}
	for _, r := range res.Rows {
		got[r[0].(string)] = [2]any{r[1], r[2]}
	}
	want := map[string][2]any{
		"bolt": {int64(90), 10.0}, "nut": {int64(120), 25.0},
		"washer": {int64(7), 1.0}, "screw": {int64(55), 2.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stored %v, want %v", got, want)
	}

	attempts := cl.Counters().Attempts
	for name, rows := range map[string][][]any{
		"string mixed into a numeric column": {{"a", 1, 1.0}, {"b", "two", 1.0}},
		"unsupported Go type":                {{"a", int32(1), 1.0}},
		"ragged rows":                        {{"a", 1, 1.0}, {"b", 2}},
	} {
		if _, err := cl.Publish(ctx, "bp", rows); !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("%s: %v, want ErrBadRequest", name, err)
		}
	}
	client.LowerFrameCap(t, 8<<10) // a publish past 64 MiB, without building one
	big := make([][]any, 2000)
	for i := range big {
		big[i] = []any{fmt.Sprintf("incompressible-%d-%x", i, i*2654435761), i, 0.5}
	}
	if _, err := cl.Publish(ctx, "bp", big); !errors.Is(err, client.ErrFrameTooLarge) {
		t.Fatalf("publish past the frame cap: %v, want ErrFrameTooLarge", err)
	}
	if n := cl.Counters().Retries; n != 0 {
		t.Fatalf("%d retries: a refused publish must not be retried", n)
	}
	if n := cl.Counters().Attempts - attempts; n != 0 {
		t.Fatalf("%d attempts for four refused publishes: none needs a connection", n)
	}

	// A typed batch violating the schema (string into an int column)
	// surfaces the server's bad_request, not a torn connection.
	if _, err := cl.Publish(ctx, "bp", [][]any{{"bad", "not-an-int", 1.0}}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("schema-violating publish: %v, want ErrBadRequest", err)
	}
	// The one pooled connection survived every refusal.
	st, err := cl.Status(ctx)
	if err != nil {
		t.Fatalf("status after rejected publishes: %v", err)
	}
	if st.TotalConnections != 1 {
		t.Fatalf("%d connections opened, want the one pooled connection throughout", st.TotalConnections)
	}
}

// TestStreamedLimitQuery drives a LIMIT query through the streamed wire
// path end to end (the limit-only pushdown completes collection early
// server-side; the stream must still deliver exactly N rows).
func TestStreamedLimitQuery(t *testing.T) {
	c, srv := serveCluster(t, 1, orchestra.ServeOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.CreateRelation(orchestra.NewSchema("lim", "k:string", "v:int").Key("k")); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows := make([][]any, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{item(i), i})
	}
	for lo := 0; lo < len(rows); lo += 500 {
		if _, err := cl.Publish(ctx, "lim", rows[lo:lo+500]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := cl.Query(ctx, "SELECT k, v FROM lim WHERE v >= 0 LIMIT 37")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 37 {
		t.Fatalf("LIMIT 37 delivered %d rows", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		k := r[0].(string)
		if seen[k] {
			t.Fatalf("duplicate key %q in limited answer", k)
		}
		seen[k] = true
	}
}

func item(i int) string {
	const digits = "0123456789"
	return "k" + string([]byte{
		digits[i/1000%10], digits[i/100%10], digits[i/10%10], digits[i%10],
	})
}
