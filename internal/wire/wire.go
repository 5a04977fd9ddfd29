// Package wire is the protocol a served ORCHESTRA deployment speaks: the
// frame format, the request and response bodies, the payload codecs of
// result streams and publishes, and the error codes. A client and a server
// both speak it, so it imports nothing of the engine or the store: only
// tuple (the batch layout a frame carries), codec (the one reader of peer
// bytes) and obs (the span tree and the stats snapshots a response carries).
//
// Every message is one frame — a 4-byte big-endian length, a kind byte,
// and a kind-specific payload (the length counts the kind byte and the
// payload). The first frame on a connection must be a hello request; it
// checks the protocol version and nothing else. The frame cap (MaxFrame)
// and a stream's credit window (CreditWindow batch frames) are constants
// of the protocol, known to both sides. After that a client sends:
//
//   - FrameJSON: a Request for one of the control ops (create, schema,
//     status, health, trace, ping) or a query. Control ops are answered
//     with one FrameJSON Response; a query is always answered with the
//     frame sequence Schema, Batch*, End (see frame.go), errors included.
//   - FramePublish: one publish as a typed column-major batch, answered
//     with a FrameJSON Response. Publishes are deduplicated by publish ID.
//   - FrameCredit / FrameCancel: flow control and abandonment of a
//     result stream.
//
// Requests carry a client-chosen ID echoed in every frame that answers
// them, so a client may pipeline several requests on one connection; the
// server executes them concurrently and replies in completion order.
package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"orchestra/internal/obs"
	"orchestra/internal/tuple"
)

// MaxFrame bounds a single frame, in both directions; a larger inbound
// frame fails the connection (framing cannot be re-synchronized past an
// unread body). Results are not subject to it as a whole — only each
// batch frame is.
const MaxFrame = 64 << 20

// CreditWindow is a result stream's credit window: the number of batch
// frames a server may have sent that the client has not yet credited.
const CreditWindow = 8

// FrameSizeError reports a frame exceeding the frame cap. It is
// surfaced instead of a raw connection abort so peers can tell "too big
// for one frame" from a torn connection.
type FrameSizeError struct {
	Size, Max int64
}

func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("server: frame of %d bytes exceeds max %d", e.Size, e.Max)
}

// UnmarshalJSONFrame decodes a JSON frame body with json.Number numbers.
func UnmarshalJSONFrame(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	return dec.Decode(v)
}

// Operation names carried in Request.Op.
const (
	OpPing    = "ping"
	OpCreate  = "create"
	OpPublish = "publish"
	OpQuery   = "query"
	OpSchema  = "schema"
	OpStatus  = "status"
	OpHello   = "hello"
	// OpTrace dumps the server's slow-query log with full span trees —
	// the heavyweight companion of the status op's summary listing.
	OpTrace = "trace"
	// OpHealth is the lightweight liveness/steering probe: current
	// drain state, load, and the cluster's advertised client endpoints.
	// Unlike the status op it carries no counters, so smart clients can
	// poll it cheaply to refresh their member lists and steer away from
	// draining or loaded endpoints.
	OpHealth = "health"
)

// ProtocolVersion is this build's wire-protocol version, checked by the
// hello handshake: a peer of any other version is refused. Version 5
// fixed the frame cap and the credit window that version 4 negotiated.
const ProtocolVersion = 5

// Request is the body of one client FrameJSON frame.
type Request struct {
	// ID is echoed in every frame answering the request (clients pick it;
	// pipelined requests on one connection are matched by it).
	ID uint64 `json:"id"`
	// Op selects the operation; at most one payload field below is set.
	Op     string         `json:"op"`
	Create *CreateRequest `json:"create,omitempty"`
	Query  *QueryRequest  `json:"query,omitempty"`
	Schema *SchemaRequest `json:"schema,omitempty"`
	Hello  *HelloRequest  `json:"hello,omitempty"`
	// Publish is filled by the session from a FramePublish frame; a
	// publish never travels as JSON.
	Publish *PublishRequest `json:"-"`
}

// HelloRequest is the mandatory first request on a connection.
type HelloRequest struct {
	// Version must equal the server's ProtocolVersion.
	Version int `json:"version"`
}

// HelloResponse accepts a connection, naming the server's version.
type HelloResponse struct {
	Version int `json:"version"`
}

// CreateRequest registers a relation. Columns are "name:type" with type
// one of int, float, string; Keys name the partitioning key columns
// (default: the first column).
type CreateRequest struct {
	Relation string   `json:"relation"`
	Columns  []string `json:"columns"`
	Keys     []string `json:"keys,omitempty"`
}

// PublishRequest inserts a batch of rows as one published update,
// advancing the global epoch — the decoded form of a FramePublish frame.
type PublishRequest struct {
	Relation string
	// PublishID is a client-chosen idempotency token (0 = none): a
	// retried publish carrying an ID the deployment has already committed
	// returns the originally committed epoch instead of applying twice.
	PublishID uint64
	// TypedRows are the rows as typed by the wire batch codec; backends
	// coerce them onto the relation's column types (CoerceTypedRows).
	TypedRows []tuple.Row
}

// QueryRequest runs a single-block SQL query against a snapshot.
type QueryRequest struct {
	SQL string `json:"sql"`
	// Epoch pins the snapshot (0 = current).
	Epoch uint64 `json:"epoch,omitempty"`
	// Recovery is "", "fail", "restart", or "incremental".
	Recovery string `json:"recovery,omitempty"`
	// Provenance forces provenance tracking (overhead measurement, §VI-E).
	Provenance bool `json:"provenance,omitempty"`
	// TimeoutMs bounds execution; capped by the server's RequestTimeout.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// Explain asks for the optimizer's plan explanation in the End frame.
	Explain bool `json:"explain,omitempty"`
	// Trace asks for the query's span tree in the End frame.
	Trace bool `json:"trace,omitempty"`
}

// SchemaRequest fetches one relation's schema, or the server's whole
// known catalog when Relation is empty.
type SchemaRequest struct {
	Relation string `json:"relation,omitempty"`
}

// Response is the body of one server FrameJSON frame.
type Response struct {
	ID    uint64 `json:"id"`
	Error *Error `json:"error,omitempty"`
	// Epoch is set by ping (current), create, and publish (resulting).
	Epoch  uint64          `json:"epoch,omitempty"`
	Schema *SchemaResponse `json:"schema,omitempty"`
	Status *StatusResponse `json:"status,omitempty"`
	Hello  *HelloResponse  `json:"hello,omitempty"`
	Trace  *TraceResponse  `json:"trace,omitempty"`
	Health *HealthResponse `json:"health,omitempty"`
}

// HealthResponse answers the health op.
type HealthResponse struct {
	// Status is "ok" or "draining". A draining server answers health (and
	// other read-only ops) but refuses new queries and publishes with
	// CodeUnavailable while its in-flight work finishes.
	Status string `json:"status"`
	// InFlight and MaxConcurrent expose current load for least-loaded
	// endpoint selection.
	InFlight      int64 `json:"in_flight"`
	MaxConcurrent int   `json:"max_concurrent"`
	Connections   int64 `json:"connections"`
	// Peers lists the advertised client endpoints of the deployment this
	// server belongs to (itself included), for member-list refresh.
	Peers []string `json:"peers,omitempty"`
}

// Error codes carried in Error.Code.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeTimeout    = "timeout"
	CodeInternal   = "internal"
	// CodeFrameTooLarge reports a single frame exceeding MaxFrame.
	CodeFrameTooLarge = "frame_too_large"
	// CodeCancelled terminates a stream the client abandoned with a
	// cancel frame: emission stopped at the client's request, the
	// connection remains usable.
	CodeCancelled = "cancelled"
	// CodeUnavailable rejects a request *before any execution* — today,
	// because the server is draining for shutdown. The rejection is a
	// proof of non-execution, so a client may re-route the request to
	// another endpoint unconditionally, publishes included.
	CodeUnavailable = "unavailable"
)

// Typed error categories an Error unwraps to; test with errors.Is.
var (
	// ErrBadRequest reports a malformed or unparsable request.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound reports a missing relation.
	ErrNotFound = errors.New("not found")
	// ErrTimeout reports a server-side request timeout (admission wait
	// included).
	ErrTimeout = errors.New("timeout")
	// ErrFrameTooLarge reports a single frame exceeding MaxFrame —
	// typically a publish too big for one frame.
	// Results are not subject to a whole-result cap.
	ErrFrameTooLarge = errors.New("frame too large")
	// ErrCancelled reports a stream terminated by a cancel frame.
	ErrCancelled = errors.New("stream cancelled")
	// ErrServer reports any other server-side failure.
	ErrServer = errors.New("server error")
)

// Error is a typed error crossing the wire: the server answers a failed
// request with one, and a client returns it from the call.
type Error struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is the server's description.
	Message string `json:"message"`
}

func (e *Error) Error() string { return "orchestra server: " + e.Code + ": " + e.Message }

// Unwrap maps the code onto the typed sentinel errors.
func (e *Error) Unwrap() error {
	switch e.Code {
	case CodeBadRequest:
		return ErrBadRequest
	case CodeNotFound:
		return ErrNotFound
	case CodeTimeout:
		return ErrTimeout
	case CodeFrameTooLarge:
		return ErrFrameTooLarge
	case CodeCancelled:
		return ErrCancelled
	}
	return ErrServer
}

// Errorf builds an Error with the given code.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// RelationInfo describes one catalog entry.
type RelationInfo struct {
	Relation string   `json:"relation"`
	Columns  []string `json:"columns"` // "name:type"
	Keys     []string `json:"keys"`
	// Rows is the server's row-count estimate (0 when unknown).
	Rows int64 `json:"rows,omitempty"`
}

// SchemaResponse lists catalog entries.
type SchemaResponse struct {
	Relations []RelationInfo `json:"relations"`
}

// OpCounters accumulates per-operation accounting.
type OpCounters struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	// TotalUs and MaxUs are service-time microseconds (admission wait
	// included — that is what the client observes).
	TotalUs int64 `json:"total_us"`
	MaxUs   int64 `json:"max_us"`
	// P50Us/P95Us/P99Us are latency quantiles from the op's histogram.
	P50Us int64 `json:"p50_us,omitempty"`
	P95Us int64 `json:"p95_us,omitempty"`
	P99Us int64 `json:"p99_us,omitempty"`
}

// StatusResponse reports server identity and load counters.
type StatusResponse struct {
	NodeID  string `json:"node_id"`
	Members int    `json:"members"`
	// Peers lists the deployment's advertised client endpoints (the same
	// list the health op carries) — the seed for smart-client member lists.
	Peers []string `json:"peers,omitempty"`
	Epoch uint64   `json:"epoch"`
	// UptimeMs is milliseconds since the server started.
	UptimeMs int64 `json:"uptime_ms"`
	// Connections is the live session count; TotalConnections ever.
	Connections      int64 `json:"connections"`
	TotalConnections int64 `json:"total_connections"`
	// InFlightQueries / PeakInFlightQueries expose the admission-control
	// semaphore: peak never exceeds MaxConcurrentQueries.
	InFlightQueries      int64 `json:"in_flight_queries"`
	PeakInFlightQueries  int64 `json:"peak_in_flight_queries"`
	MaxConcurrentQueries int   `json:"max_concurrent_queries"`
	// Ops keys are the Op* operation names.
	Ops map[string]OpCounters `json:"ops"`
	// Caches reports hit/miss/eviction counters by cache name ("views",
	// "pages") when the backend exposes them.
	Caches map[string]obs.CacheStats `json:"caches,omitempty"`
	// Streams summarizes streamed-execution activity (during-execution
	// emission): query/row counts and first-batch latency quantiles.
	Streams *StreamStats `json:"streams,omitempty"`
	// SlowQueries summarizes the slow-query ring (span trees stripped;
	// the trace op returns them in full).
	SlowQueries []SlowQuery `json:"slow_queries,omitempty"`
	// Durability reports the serving node's WAL/snapshot/recovery
	// counters when its store is durable (omitted for in-memory stores).
	Durability *obs.DurabilityStats `json:"durability,omitempty"`
	// Replication reports the serving node's replica-repair health —
	// catch-up counters, anti-entropy repairs, and per-peer shipping
	// lag — when the backend exposes it (omitted for single-node
	// deployments).
	Replication *obs.ReplStats `json:"replication,omitempty"`
}

// SlowQuery is one slow-query log entry.
type SlowQuery struct {
	SQL     string `json:"sql"`
	TraceID string `json:"trace_id,omitempty"`
	DurUs   int64  `json:"dur_us"`
	// StartUnixMs is the query's wall-clock start.
	StartUnixMs int64  `json:"start_unix_ms"`
	Error       string `json:"error,omitempty"`
	// Rows is the result size: rows handed to the stream writer.
	Rows int64 `json:"rows"`
	// Trace is the query's span tree (omitted in status summaries).
	Trace *obs.Span `json:"trace,omitempty"`
}

// StreamStats summarizes the server's result streams. Queries and Rows
// count streamed execution only: queries that emitted rows during
// execution, and those rows. The first-batch latency distribution
// (request start to first batch frame on the wire) covers every query
// that sent a batch — view-cache hits and collected answers too — so a
// server answering only from its cache still reports it.
type StreamStats struct {
	Queries uint64 `json:"queries"`
	Rows    uint64 `json:"rows"`
	// FirstBatch* summarize the first-batch latency histogram.
	FirstBatchP50Us int64 `json:"first_batch_p50_us,omitempty"`
	FirstBatchP95Us int64 `json:"first_batch_p95_us,omitempty"`
	FirstBatchP99Us int64 `json:"first_batch_p99_us,omitempty"`
	FirstBatchMaxUs int64 `json:"first_batch_max_us,omitempty"`
}

// TraceResponse answers the trace op: the slow-query ring, oldest
// first, with full span trees.
type TraceResponse struct {
	// ThresholdMs is the active slow-query threshold (0 = logging off).
	ThresholdMs int64 `json:"threshold_ms"`
	// Dropped counts entries the ring has overwritten.
	Dropped uint64      `json:"dropped,omitempty"`
	Entries []SlowQuery `json:"entries,omitempty"`
}
