package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/codec"
)

// TraceID identifies one query execution across every node it touches.
// It is minted at the initiator and propagated in the prepare message so
// remote fragments label their spans with it.
type TraceID uint64

var traceSeq atomic.Uint64

// NewTraceID mints a random-seeded, sequence-advanced trace id.
func NewTraceID() TraceID {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return TraceID(traceSeq.Add(0x9e3779b97f4a7c15))
	}
	// Mix a local sequence in so ids stay unique even if the entropy
	// source repeats under test harnesses.
	return TraceID(binary.BigEndian.Uint64(b[:]) ^ traceSeq.Add(1)<<32)
}

// String renders the id as 16 hex digits.
func (id TraceID) String() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return hex.EncodeToString(b[:])
}

// Span is one timed stage of a query: plan, a scan pass, ship
// encode/decode, the final pipeline, stream write, or a remote
// fragment's whole execution. Spans form a tree under the trace root.
type Span struct {
	// Name is the stage: "query", "plan", "fragment", "scan.index",
	// "scan.pass" (with its "scan.prepare" child, the wanted list's
	// build), "ship.encode", "ship.decode", "final", "stream.write".
	Name string `json:"name"`
	// Node is the cluster node the stage ran on (empty = initiator).
	Node string `json:"node,omitempty"`
	// Phase is the execution phase (recovery waves advance it).
	Phase uint32 `json:"phase,omitempty"`
	// StartUs is the stage's start, microseconds from the trace origin.
	StartUs int64 `json:"start_us"`
	// DurUs is the stage's duration in microseconds.
	DurUs int64 `json:"dur_us"`
	// Rows / Batches / Bytes count the stage's throughput.
	Rows    int64 `json:"rows,omitempty"`
	Batches int64 `json:"batches,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
	// CacheHits / CacheMisses attribute cache behaviour (view cache at
	// the root, decoded-page LRU on fragments).
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Children are the nested stages.
	Children []*Span `json:"children,omitempty"`
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Walk visits every span in the subtree depth-first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Trace collects the span tree for one query. Begin/End touch only the
// span being timed; Attach takes the trace lock, so concurrent scan
// goroutines may attach safely. A nil *Trace is the off switch: the
// instrumentation sites all guard on it.
type Trace struct {
	ID TraceID
	t0 time.Time

	mu   sync.Mutex
	root *Span
}

// NewTrace starts a trace with a root span of the given name.
func NewTrace(id TraceID, rootName, node string) *Trace {
	t := &Trace{ID: id, t0: time.Now()}
	t.root = &Span{Name: rootName, Node: node}
	return t
}

// Root returns the root span. Call after the query completes: the tree
// may still be mutated by Attach while execution is in flight.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// SinceUs is the microseconds elapsed since the trace origin.
func (t *Trace) SinceUs() int64 { return time.Since(t.t0).Microseconds() }

// Begin starts timing a span. The span is not yet in the tree; call
// Attach (typically after End) to link it under a parent.
func (t *Trace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{Name: name, StartUs: t.SinceUs()}
}

// End stamps the span's duration. Safe on a nil span.
func (t *Trace) End(s *Span) {
	if t == nil || s == nil {
		return
	}
	s.DurUs = t.SinceUs() - s.StartUs
}

// Attach links a finished (or still-accumulating) span under parent;
// nil parent means the root. Takes the trace lock.
func (t *Trace) Attach(parent, s *Span) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent == nil {
		parent = t.root
	}
	parent.Children = append(parent.Children, s)
}

// EncodeRoot appends the binary encoding of the root span subtree to
// dst under the trace lock, safe against concurrent Attach.
func (t *Trace) EncodeRoot(dst []byte) []byte {
	if t == nil {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return AppendSpan(dst, t.root)
}

// Finish stamps the root span's total duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.root.DurUs = t.SinceUs() - t.root.StartUs
}

// ---- binary span codec ----
//
// Remote fragments ship their span subtree back to the initiator in the
// ship-EOS message, appended after the fixed NodeStats block. The
// encoding is a compact varint preorder walk; strings are
// length-prefixed, counters are unsigned varints, and StartUs is
// relative to the remote node's own trace origin (clocks are not
// assumed synchronized — the initiator reads remote StartUs values as
// fragment-local offsets).

// AppendSpan encodes the span subtree onto dst. The caller must hold
// whatever lock protects the tree from concurrent Attach.
func AppendSpan(dst []byte, s *Span) []byte {
	dst = appendString(dst, s.Name)
	dst = appendString(dst, s.Node)
	dst = binary.AppendUvarint(dst, uint64(s.Phase))
	dst = binary.AppendUvarint(dst, uint64(s.StartUs))
	dst = binary.AppendUvarint(dst, uint64(s.DurUs))
	dst = binary.AppendUvarint(dst, uint64(s.Rows))
	dst = binary.AppendUvarint(dst, uint64(s.Batches))
	dst = binary.AppendUvarint(dst, uint64(s.Bytes))
	dst = binary.AppendUvarint(dst, uint64(s.CacheHits))
	dst = binary.AppendUvarint(dst, uint64(s.CacheMisses))
	dst = binary.AppendUvarint(dst, uint64(len(s.Children)))
	for _, c := range s.Children {
		dst = AppendSpan(dst, c)
	}
	return dst
}

// DecodeSpan decodes one span subtree, returning the remaining bytes.
func DecodeSpan(b []byte) (*Span, []byte, error) {
	r := codec.NewReader(b)
	s := decodeSpan(&r)
	rest := r.Rest()
	if err := r.Done("obs: span encoding"); err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// spanMinSize is the least a span encodes to: two empty strings, eight
// counters and a child count of one byte each.
const spanMinSize = 11

func decodeSpan(r *codec.Reader) *Span {
	if !r.Enter() {
		return nil
	}
	defer r.Leave()
	s := &Span{Name: r.Str(), Node: r.Str(), Phase: uint32(r.Uvarint())}
	for _, f := range [...]*int64{&s.StartUs, &s.DurUs, &s.Rows, &s.Batches, &s.Bytes, &s.CacheHits, &s.CacheMisses} {
		*f = int64(r.Uvarint())
	}
	for kids := r.Count(spanMinSize); kids > 0 && r.Err() == nil; kids-- {
		s.Children = append(s.Children, decodeSpan(r))
	}
	return s
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
