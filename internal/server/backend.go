package server

import (
	"context"
	"sort"
	"strings"

	"orchestra/internal/cluster"
	"orchestra/internal/engine"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/tuple"
)

// Backend is the node the server fronts. NodeBackend is the one
// implementation outside tests — an orchestra-node process wraps its
// cluster.Node in one, an embedded orchestra Cluster holds one per node —
// and the interface exists so the server's own tests can substitute a
// stub.
type Backend interface {
	// Create registers a relation and returns the current epoch.
	Create(ctx context.Context, req *CreateRequest) (tuple.Epoch, error)
	// Publish applies one batch and returns the new epoch.
	Publish(ctx context.Context, req *PublishRequest) (tuple.Epoch, error)
	// QueryStream executes one SQL query against a snapshot, emitting the
	// answer through out, and returns the terminal metadata. On error,
	// frames already emitted are followed by an error End frame — partial
	// results are explicitly invalidated for the client.
	QueryStream(ctx context.Context, req *QueryRequest, out ResultStream) (*QueryTail, error)
	// Catalog describes one relation (or all known ones when rel == "").
	Catalog(ctx context.Context, rel string) (*SchemaResponse, error)
	// Epoch is the backend's current view of the global epoch.
	Epoch() tuple.Epoch
	// Info identifies the serving node.
	Info() BackendInfo
	// CacheStats reports cache counters by name ("views", "pages").
	CacheStats() map[string]engine.CacheStats
	// DurabilityStats reports the serving node's WAL/snapshot counters;
	// ok is false for an in-memory store.
	DurabilityStats() (stats kvstore.DurabilityStats, ok bool)
	// ReplStats reports replica-repair health (WAL-shipping catch-up,
	// anti-entropy, per-peer lag); ok is false for a single-node
	// deployment, which has nothing to replicate with.
	ReplStats() (stats cluster.ReplStats, ok bool)
}

// BackendInfo identifies the node behind a server.
type BackendInfo struct {
	NodeID  string
	Members int
}

// MergePeers unions advertised client addresses into one member list for
// Config.Peers: trimmed, blanks and duplicates dropped, sorted for stable
// output.
func MergePeers(lists ...[]string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, list := range lists {
		for _, a := range list {
			a = strings.TrimSpace(a)
			if _, dup := seen[a]; a == "" || dup {
				continue
			}
			seen[a] = struct{}{}
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// ResultStream is the one hand-off for a query's answer, from whatever
// produces it — the engine's ship consumer during execution, a collected
// result, a view-cache entry — to the frame writer: the column shape
// once, then zero or more batches. The server's implementation sends the
// schema frame ahead of the first chunk, re-chunks to the wire's size
// bounds and applies flow-control backpressure, so producers may emit
// batches of any size, as soon as they have them. Batches are borrowed:
// not mutated by the stream and not retained past the call.
type ResultStream interface {
	// Columns announces the output column names, before any chunk.
	Columns(cols []string)
	// StreamCols emits a chunk of the answer.
	engine.StreamSink
}

// QueryTail is the terminal metadata of a query — everything about the
// answer except the rows themselves. The JSON tags are its wire form
// inside a StreamEnd frame.
type QueryTail struct {
	Epoch    uint64 `json:"epoch,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Phases   uint32 `json:"phases,omitempty"`
	Restarts int    `json:"restarts,omitempty"`
	Plan     string `json:"plan,omitempty"`
	// TraceID/Trace carry the query's span tree when tracing was
	// requested.
	TraceID string    `json:"trace_id,omitempty"`
	Trace   *obs.Span `json:"trace,omitempty"`
	// Streamed counts rows that were emitted to the stream *during*
	// execution (zero on the collect-then-emit path). Nonzero means the
	// query ran on the streaming pushdown path end to end.
	Streamed int64 `json:"streamed,omitempty"`
}

// RecoveryMode maps a wire recovery-mode name to the engine constant.
func RecoveryMode(name string) (engine.RecoveryMode, error) {
	switch name {
	case "", "restart":
		return engine.RecoverRestart, nil
	case "fail":
		return engine.RecoverFail, nil
	case "incremental":
		return engine.RecoverIncremental, nil
	}
	return 0, Errorf(CodeBadRequest, "unknown recovery mode %q", name)
}
