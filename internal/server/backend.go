package server

import (
	"context"
	"sort"
	"strings"

	"orchestra/internal/engine"
	"orchestra/internal/obs"
	"orchestra/internal/tuple"
	"orchestra/internal/wire"
)

// Backend is the node the server fronts. NodeBackend is the one
// implementation outside tests — an orchestra-node process wraps its
// cluster.Node in one, an embedded orchestra Cluster holds one per node —
// and the interface exists so the server's own tests can substitute a
// stub.
type Backend interface {
	// Create registers a relation and returns the current epoch.
	Create(ctx context.Context, req *wire.CreateRequest) (tuple.Epoch, error)
	// Publish applies one batch and returns the new epoch.
	Publish(ctx context.Context, req *wire.PublishRequest) (tuple.Epoch, error)
	// QueryStream executes one SQL query against a snapshot, emitting the
	// answer through out, and returns the terminal metadata. On error,
	// frames already emitted are followed by an error End frame — partial
	// results are explicitly invalidated for the client.
	QueryStream(ctx context.Context, req *wire.QueryRequest, out ResultStream) (*wire.QueryTail, error)
	// Catalog describes one relation (or all known ones when rel == "").
	Catalog(ctx context.Context, rel string) (*wire.SchemaResponse, error)
	// Epoch is the backend's current view of the global epoch.
	Epoch() tuple.Epoch
	// Info identifies the serving node.
	Info() BackendInfo
	// CacheStats reports cache counters by name ("views", "pages").
	CacheStats() map[string]obs.CacheStats
	// DurabilityStats reports the serving node's WAL/snapshot counters;
	// ok is false for an in-memory store.
	DurabilityStats() (stats obs.DurabilityStats, ok bool)
	// ReplStats reports replica-repair health (WAL-shipping catch-up,
	// anti-entropy, per-peer lag); ok is false for a single-node
	// deployment, which has nothing to replicate with.
	ReplStats() (stats obs.ReplStats, ok bool)
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
	return 0, wire.Errorf(wire.CodeBadRequest, "unknown recovery mode %q", name)
}

// CoerceTypedRows coerces batch-decoded rows onto a schema's column
// types, in place where the types already match: numeric columns accept
// either numeric type (integral floats for int columns), string columns
// accept strings.
func CoerceTypedRows(s *tuple.Schema, rows []tuple.Row) error {
	for i, row := range rows {
		if len(row) != s.Arity() {
			return wire.Errorf(wire.CodeBadRequest, "row %d arity %d != schema arity %d", i, len(row), s.Arity())
		}
		for j := range row {
			v := &row[j]
			col := s.Columns[j]
			if v.T == col.Type {
				continue
			}
			switch {
			case col.Type == tuple.Float64 && v.T == tuple.Int64:
				*v = tuple.F(float64(v.I64))
			case col.Type == tuple.Int64 && v.T == tuple.Float64 && v.F64 == float64(int64(v.F64)):
				*v = tuple.I(int64(v.F64))
			default:
				return wire.Errorf(wire.CodeBadRequest, "column %s wants %v, got %v", col.Name, col.Type, v.T)
			}
		}
	}
	return nil
}

// ParseColumns converts "name:type" specs into tuple columns.
func ParseColumns(specs []string) ([]tuple.Column, error) {
	cols := make([]tuple.Column, 0, len(specs))
	for _, c := range specs {
		name, typ, ok := strings.Cut(c, ":")
		if !ok || name == "" {
			return nil, wire.Errorf(wire.CodeBadRequest, "bad column %q (want name:type)", c)
		}
		var t tuple.Type
		switch typ {
		case "int", "int64":
			t = tuple.Int64
		case "float", "float64":
			t = tuple.Float64
		case "string", "str":
			t = tuple.String
		default:
			return nil, wire.Errorf(wire.CodeBadRequest, "bad column type in %q", c)
		}
		cols = append(cols, tuple.Column{Name: name, Type: t})
	}
	return cols, nil
}

// FormatColumns renders a schema's columns back to "name:type" specs.
func FormatColumns(s *tuple.Schema) (cols, keys []string) {
	for _, c := range s.Columns {
		typ := "string"
		switch c.Type {
		case tuple.Int64:
			typ = "int"
		case tuple.Float64:
			typ = "float"
		}
		cols = append(cols, c.Name+":"+typ)
	}
	for _, k := range s.Key {
		keys = append(keys, s.Columns[k].Name)
	}
	return cols, keys
}
