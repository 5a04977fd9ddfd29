package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"orchestra/internal/keyspace"
	"orchestra/internal/ring"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// KeyPred is a sargable predicate over the order-preserving key encoding:
// it selects tuple IDs with Lo <= key < Hi (nil bounds are open). It is the
// filter f(k̄) of Algorithm 1, shipped to index nodes.
type KeyPred struct {
	Lo, Hi []byte
}

// Match reports whether an encoded key satisfies the predicate.
func (p KeyPred) Match(key string) bool {
	if p.Lo != nil && bytes.Compare([]byte(key), p.Lo) < 0 {
		return false
	}
	if p.Hi != nil && bytes.Compare([]byte(key), p.Hi) >= 0 {
		return false
	}
	return true
}

// EqPred selects exactly the tuples whose full key equals the given values.
func EqPred(s *tuple.Schema, keyVals ...tuple.Value) KeyPred {
	var enc []byte
	for _, v := range keyVals {
		enc = tuple.AppendKeyValue(enc, v)
	}
	hi := append(append([]byte(nil), enc...), 0)
	return KeyPred{Lo: enc, Hi: hi}
}

// AllPred selects every tuple.
func AllPred() KeyPred { return KeyPred{} }

// scanCollector accumulates the out-of-band tuple shipments for one
// Retrieve call.
type scanCollector struct {
	mu       sync.Mutex
	rows     [][]byte // encoded tuple records
	received int
	expected int // -1 until all ScanPage replies arrive
	done     chan struct{}
	closed   bool
}

func (c *scanCollector) add(values [][]byte) {
	c.mu.Lock()
	c.rows = append(c.rows, values...)
	c.received++
	c.check()
	c.mu.Unlock()
}

func (c *scanCollector) setExpected(n int) {
	c.mu.Lock()
	c.expected = n
	c.check()
	c.mu.Unlock()
}

func (c *scanCollector) check() {
	if !c.closed && c.expected >= 0 && c.received >= c.expected {
		c.closed = true
		close(c.done)
	}
}

// --- wire formats ---

type scanPageReq struct {
	ScanID    uint64
	Requester ring.NodeID
	Page      vstore.PageRef // ID and range; the counts do not travel
	Pred      KeyPred
}

func encodeScanPageReq(r scanPageReq) []byte {
	out := binary.BigEndian.AppendUint64(nil, r.ScanID)
	out = appendBytes(out, []byte(r.Requester))
	out = appendBytes(out, []byte(r.Page.ID.Relation))
	out = binary.BigEndian.AppendUint64(out, uint64(r.Page.ID.Epoch))
	out = binary.BigEndian.AppendUint32(out, r.Page.ID.Seq)
	out = append(append(out, r.Page.Min[:]...), r.Page.Max[:]...)
	out = appendBytes(out, r.Pred.Lo)
	out = appendBytes(out, r.Pred.Hi)
	return out
}

func decodeScanPageReq(data []byte) (scanPageReq, error) {
	var r scanPageReq
	if len(data) < 8 {
		return r, errors.New("cluster: short scan request")
	}
	r.ScanID = binary.BigEndian.Uint64(data)
	rest := data[8:]
	req, rest, err := readBytes(rest)
	if err != nil {
		return r, err
	}
	r.Requester = ring.NodeID(req)
	rel, rest, err := readBytes(rest)
	if err != nil {
		return r, err
	}
	if len(rest) < 8+4+2*keyspace.Size {
		return r, errors.New("cluster: truncated page ref in scan request")
	}
	r.Page.ID = vstore.PageID{
		Relation: string(rel),
		Epoch:    tuple.Epoch(binary.BigEndian.Uint64(rest)),
		Seq:      binary.BigEndian.Uint32(rest[8:]),
	}
	copy(r.Page.Min[:], rest[12:])
	copy(r.Page.Max[:], rest[12+keyspace.Size:])
	rest = rest[12+2*keyspace.Size:]
	lo, rest, err := readBytes(rest)
	if err != nil {
		return r, err
	}
	hi, _, err := readBytes(rest)
	if err != nil {
		return r, err
	}
	if len(lo) > 0 {
		r.Pred.Lo = lo
	}
	if len(hi) > 0 {
		r.Pred.Hi = hi
	}
	return r, nil
}

func encodeFetchFwd(scanID uint64, requester ring.NodeID, ids []tuple.ID) []byte {
	out := binary.BigEndian.AppendUint64(nil, scanID)
	out = appendBytes(out, []byte(requester))
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.BigEndian.AppendUint64(out, uint64(id.Epoch))
		out = appendBytes(out, []byte(id.Key))
	}
	return out
}

func decodeFetchFwd(data []byte) (scanID uint64, requester ring.NodeID, ids []tuple.ID, err error) {
	if len(data) < 8 {
		return 0, "", nil, errors.New("cluster: short fetch forward")
	}
	scanID = binary.BigEndian.Uint64(data)
	rest := data[8:]
	req, rest, err := readBytes(rest)
	if err != nil {
		return 0, "", nil, err
	}
	requester = ring.NodeID(req)
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > 1<<26 {
		return 0, "", nil, errors.New("cluster: bad fetch count")
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		if len(rest) < 8 {
			return 0, "", nil, errors.New("cluster: truncated fetch id")
		}
		e := tuple.Epoch(binary.BigEndian.Uint64(rest))
		rest = rest[8:]
		var k []byte
		k, rest, err = readBytes(rest)
		if err != nil {
			return 0, "", nil, err
		}
		ids = append(ids, tuple.ID{Key: string(k), Epoch: e})
	}
	return scanID, requester, ids, nil
}

func encodeScanResult(scanID uint64, values [][]byte) []byte {
	out := binary.BigEndian.AppendUint64(nil, scanID)
	out = binary.AppendUvarint(out, uint64(len(values)))
	for _, v := range values {
		out = appendBytes(out, v)
	}
	return out
}

func decodeScanResult(data []byte) (scanID uint64, values [][]byte, err error) {
	if len(data) < 8 {
		return 0, nil, errors.New("cluster: short scan result")
	}
	scanID = binary.BigEndian.Uint64(data)
	rest := data[8:]
	count, n := binary.Uvarint(rest)
	if n <= 0 || count > 1<<26 {
		return 0, nil, errors.New("cluster: bad result count")
	}
	rest = rest[n:]
	for i := uint64(0); i < count; i++ {
		var v []byte
		v, rest, err = readBytes(rest)
		if err != nil {
			return 0, nil, err
		}
		values = append(values, v)
	}
	return scanID, values, nil
}

// registerScanHandlers installs the Algorithm 1 machinery.
func (n *Node) registerScanHandlers() {
	// Index-node side: scan one page, filter, and fan requests out to the
	// data storage nodes, which ship tuples directly to the requester
	// "bypassing the Index node and Relation Coordinator" (Algorithm 1).
	n.ep.Handle(msgScanPage, func(from ring.NodeID, payload []byte) ([]byte, error) {
		return n.scanPageImpl(payload, false) // on the delivery loop: no RPCs
	})

	// Data-node side: look up the requested tuple versions and ship them to
	// the requester. Runs off the delivery loop because missing tuples may
	// require replica-fallback RPCs (§IV: never return stale data — fetch
	// the exact version from the network instead).
	n.ep.Handle(msgFetchFwd, func(from ring.NodeID, payload []byte) ([]byte, error) {
		buf := append([]byte(nil), payload...)
		go n.serveFetch(buf)
		return nil, nil
	})

	// Requester side: collect shipped tuples.
	n.ep.Handle(msgScanResult, func(from ring.NodeID, payload []byte) ([]byte, error) {
		scanID, values, err := decodeScanResult(payload)
		if err != nil {
			return nil, err
		}
		n.scanMu.Lock()
		col := n.scans[scanID]
		n.scanMu.Unlock()
		if col != nil {
			col.add(values)
		}
		return nil, nil
	})
}

// serveFetch is the data-storage-node half of Algorithm 1.
func (n *Node) serveFetch(payload []byte) {
	scanID, requester, ids, err := decodeFetchFwd(payload)
	if err != nil {
		return
	}
	values := make([][]byte, 0, len(ids))
	for _, id := range ids {
		kvKey := vstore.TupleKVKey(id)
		if v, ok := n.store.Get(kvKey); ok {
			values = append(values, v)
			continue
		}
		// Exact version missing locally (e.g. membership churn): fetch it
		// from other replicas rather than ever serving stale data.
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RequestTimeout)
		v, err := n.GetRecord(ctx, id.Hash(), kvKey)
		cancel()
		if err == nil {
			values = append(values, v)
		}
	}
	if requester == n.id {
		n.scanMu.Lock()
		col := n.scans[scanID]
		n.scanMu.Unlock()
		if col != nil {
			col.add(values)
		}
		return
	}
	_ = n.ep.Send(requester, msgScanResult, encodeScanResult(scanID, values))
}

func (n *Node) registerHandlers() {
	n.registerRecordHandlers()
	n.registerScanHandlers()
	n.registerLeaseHandler()
	n.registerRepairHandlers()
}

// Retrieve implements Algorithm 1: fetch the tuples of relation as of
// global epoch e that satisfy pred. The result is a consistent, complete
// snapshot — exactly the tuple versions current at the effective epoch.
func (n *Node) Retrieve(ctx context.Context, relation string, e tuple.Epoch, pred KeyPred) ([]tuple.Row, error) {
	eff, cat, ok, err := n.ResolveEpoch(ctx, relation, e)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil // relation existed but had no data at e
	}
	coord, err := n.GetCoordinator(ctx, relation, eff)
	if err != nil {
		return nil, err
	}

	col := &scanCollector{expected: -1, done: make(chan struct{})}
	n.scanMu.Lock()
	n.nextScan++
	scanID := n.nextScan
	n.scans[scanID] = col
	n.scanMu.Unlock()
	defer func() {
		n.scanMu.Lock()
		delete(n.scans, scanID)
		n.scanMu.Unlock()
	}()

	table := n.Table()
	totalDataNodes := 0
	for _, ref := range coord.Pages {
		req := encodeScanPageReq(scanPageReq{
			ScanID:    scanID,
			Requester: n.id,
			Page:      ref,
			Pred:      pred,
		})
		dataNodes, err := n.scanOnePage(ctx, table, ref, req)
		if err != nil {
			return nil, fmt.Errorf("cluster: scan page %s: %w", ref.ID, err)
		}
		totalDataNodes += dataNodes
	}
	col.setExpected(totalDataNodes)

	select {
	case <-col.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}

	col.mu.Lock()
	raw := col.rows
	col.mu.Unlock()
	rows := make([]tuple.Row, 0, len(raw))
	for _, v := range raw {
		rec, err := vstore.DecodeTupleRecord(cat.Schema, v)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rec.Row)
	}
	return rows, nil
}

// scanOnePage sends the ScanPage RPC to the page's index node, falling back
// across the placement's replicas. It returns the number of data-node
// shipments to expect.
func (n *Node) scanOnePage(ctx context.Context, table *ring.Table, ref vstore.PageRef, req []byte) (int, error) {
	var lastErr error
	for _, rep := range table.Replicas(ref.Placement()) {
		var resp []byte
		var err error
		if rep == n.id {
			resp, err = n.scanPageImpl(req, true)
		} else {
			rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
			resp, err = n.ep.Request(rctx, rep, msgScanPage, req)
			cancel()
		}
		if err != nil {
			lastErr = err
			continue
		}
		if len(resp) != 8 {
			lastErr = errors.New("cluster: malformed scan reply")
			continue
		}
		return int(binary.BigEndian.Uint32(resp[:4])), nil
	}
	return 0, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

// scanPageImpl is the index-node half of Algorithm 1, shared by the RPC
// handler and the local fast path; remote says whether page records
// missing here may be fetched from other replicas.
func (n *Node) scanPageImpl(payload []byte, remote bool) ([]byte, error) {
	r, err := decodeScanPageReq(payload)
	if err != nil {
		return nil, err
	}
	page, _, err := n.resolvePage(context.Background(), r.Page, remote) // GetRecord bounds each request
	if err != nil {
		// The requester will retry at another replica of this page.
		return nil, err
	}
	table := n.Table()
	byOwner := make(map[ring.NodeID][]tuple.ID)
	matched := 0
	for i, id := range page.IDs {
		if !r.Pred.Match(id.Key) {
			continue
		}
		matched++
		owner := table.Owner(page.Hashes[i])
		byOwner[owner] = append(byOwner[owner], id)
	}
	for owner, ids := range byOwner {
		fwd := encodeFetchFwd(r.ScanID, r.Requester, ids)
		if owner == n.id {
			// Colocated: serve directly without a network hop.
			go n.serveFetch(fwd)
			continue
		}
		// The owner's replicas hold copies of its range; if the owner is
		// unreachable, forward to the next live replica (§IV: retrieve the
		// missing state from other nearby nodes).
		delivered := false
		for _, cand := range table.Replicas(ids[0].Hash()) {
			if cand == n.id {
				go n.serveFetch(append([]byte(nil), fwd...))
				delivered = true
				break
			}
			if err := n.ep.Send(cand, msgFetchFwd, fwd); err == nil {
				delivered = true
				break
			}
		}
		if !delivered {
			// Every replica unreachable: report zero tuples so the scan
			// terminates; the caller observes missing data via counts.
			_ = n.ep.Send(r.Requester, msgScanResult, encodeScanResult(r.ScanID, nil))
		}
	}
	var reply [8]byte
	binary.BigEndian.PutUint32(reply[:4], uint32(len(byOwner)))
	binary.BigEndian.PutUint32(reply[4:], uint32(matched))
	return reply[:], nil
}

// RetrieveTimeout is a convenience wrapper with a default deadline.
func (n *Node) RetrieveTimeout(relation string, e tuple.Epoch, pred KeyPred, d time.Duration) ([]tuple.Row, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return n.Retrieve(ctx, relation, e, pred)
}
