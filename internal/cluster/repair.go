package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/keyspace"
	"orchestra/internal/kvstore"
	"orchestra/internal/obs"
	"orchestra/internal/ring"
	"orchestra/internal/transport"
	"orchestra/internal/tuple"
	"orchestra/internal/vstore"
)

// Replica repair: WAL-shipping catch-up, state-transfer fallback, and
// anti-entropy for rejoining or lagging replicas. Records move between
// nodes only by these pulls: a membership change (Local.move) is a table
// broadcast followed by the same state transfer, narrowed to the segments
// each member gains.
//
// Every store assigns each mutation a global sequence number and retains
// recent records (kvstore's shipping ring + archived WAL segments). A
// replica that was down pulls exactly the delta it missed from a peer's
// log (msgWalShip), filters it to the placements it replicates, and
// replays its writes through the normal commit path. When the peer has
// truncated past the requested position, the replica falls back to a
// chunked ordered state transfer (msgReplFetch) of every record the peer
// holds that the puller replicates. A low-priority background loop
// additionally exchanges per-relation summaries (msgReplDigest) to detect
// silent divergence and trigger the same targeted repair.
//
// A pull never deletes on a peer's say-so: a store delete is the deleting
// node's own decision (a drop after a move, or a stale-record merge delete
// during a state transfer), and a shipped delete is never replayed.
//
// Per-peer progress markers live in the local store under a key prefix
// (y/repl/) that placementOf rejects, so they are invisible to
// membership moves, digests, and shipped-record application — but durable
// and crash-recovered like any other record.

// Repair message types (storage layer, after 0x0108).
const (
	msgReplStatus transport.MsgType = 0x0109 // → seq | firstAvail | epoch
	msgWalShip    transport.MsgType = 0x010A // after | maxBytes → records
	msgReplDigest transport.MsgType = 0x010B // → per-group summaries
	msgReplFetch  transport.MsgType = 0x010C // afterKey | maxBytes [| ranges] → pairs
)

// repairState holds the Node's repair counters and background loop.
type repairState struct {
	catchUpBatches     atomic.Uint64
	catchUpRecords     atomic.Uint64
	catchUpSkipped     atomic.Uint64
	stateTransfers     atomic.Uint64
	antiEntropyRounds  atomic.Uint64
	antiEntropyRepairs atomic.Uint64
	fetchedKeys        atomic.Uint64
	mergeDeletes       atomic.Uint64
	lastCatchUpUs      atomic.Int64
	stop               chan struct{}
	stopped            atomic.Bool
}

// Batch budgets for one walship response and one state-transfer chunk.
// Variables so tests can force multi-batch streaming with small stores.
var (
	shipBatchBytes  int64 = 1 << 20
	fetchBatchBytes int64 = 1 << 20
)

// repairDigestEvery spaces the divergence digests out to every Nth
// background round per peer. WAL catch-up is incremental — an idle round
// ships nothing — but a digest is a full store scan on both sides, so
// running one every round would grow the loop's cost linearly with the
// stored data. A variable so tests can force digests on every round.
var repairDigestEvery = 8

// replMarkerPrefix is the local-store prefix for per-peer catch-up
// markers. placementOf rejects it, keeping markers node-private.
const replMarkerPrefix = "y/repl/"

// --- wire encodings (uvarint style of records.go) ---

// encodeReplStatus: seq(8) | firstAvail(8) | epoch(8).
func encodeReplStatus(seq, firstAvail, epoch uint64) []byte {
	b := make([]byte, 24)
	binary.BigEndian.PutUint64(b, seq)
	binary.BigEndian.PutUint64(b[8:], firstAvail)
	binary.BigEndian.PutUint64(b[16:], epoch)
	return b
}

func decodeReplStatus(data []byte) (seq, firstAvail, epoch uint64, err error) {
	r := codec.NewReader(data)
	seq, firstAvail, epoch = r.U64(), r.U64(), r.U64()
	if err := r.Done("cluster: repl status"); err != nil {
		return 0, 0, 0, err
	}
	return seq, firstAvail, epoch, nil
}

// encodeShipReq: after(8) | maxBytes(8).
func encodeShipReq(after uint64, maxBytes int64) []byte {
	b := make([]byte, 16)
	binary.BigEndian.PutUint64(b, after)
	binary.BigEndian.PutUint64(b[8:], uint64(maxBytes))
	return b
}

func decodeShipReq(data []byte) (after uint64, maxBytes int64, err error) {
	r := codec.NewReader(data)
	after, maxBytes = r.U64(), int64(r.U64())
	if err := r.Done("cluster: ship request"); err != nil {
		return 0, 0, err
	}
	return after, maxBytes, nil
}

const (
	shipFlagTruncated = 1 << 0
	shipFlagMore      = 1 << 1
)

// encodeShipResp: flags(1) | firstSeq(8) | count uvarint | (op(1) |
// payload bytes)*.
func encodeShipResp(recs []kvstore.ReplRecord, more, truncated bool) []byte {
	var flags byte
	if truncated {
		flags |= shipFlagTruncated
	}
	if more {
		flags |= shipFlagMore
	}
	var first uint64
	if len(recs) > 0 {
		first = recs[0].Seq
	}
	out := make([]byte, 9, 9+len(recs)*16)
	out[0] = flags
	binary.BigEndian.PutUint64(out[1:], first)
	out = binary.AppendUvarint(out, uint64(len(recs)))
	for _, r := range recs {
		out = append(out, r.Op)
		out = codec.AppendBytes(out, r.Payload)
	}
	return out
}

func decodeShipResp(data []byte) (recs []kvstore.ReplRecord, more, truncated bool, err error) {
	r := codec.NewReader(data)
	flags, first := r.U8(), r.U64()
	count := r.Count(2) // op + length byte per record
	recs = make([]kvstore.ReplRecord, 0, count)
	for i := 0; i < count && r.Err() == nil; i++ {
		recs = append(recs, kvstore.ReplRecord{Seq: first + uint64(i), Op: r.U8(), Payload: r.Bytes()})
	}
	if err := r.Done("cluster: ship response"); err != nil {
		return nil, false, false, err
	}
	return recs, flags&shipFlagMore != 0, flags&shipFlagTruncated != 0, nil
}

// encodeFetchReq: afterKey bytes | maxBytes(8) [| count uvarint |
// (lo(20) | hi(20))*]. The ranges, sent by a membership pull only, narrow
// the fetch to the segments the requester gains.
func encodeFetchReq(afterKey []byte, maxBytes int64, want []ring.Range) []byte {
	out := codec.AppendBytes(nil, afterKey)
	out = binary.BigEndian.AppendUint64(out, uint64(maxBytes))
	if len(want) == 0 {
		return out
	}
	out = binary.AppendUvarint(out, uint64(len(want)))
	for _, r := range want {
		out = append(append(out, r.Lo[:]...), r.Hi[:]...)
	}
	return out
}

func decodeFetchReq(data []byte) (afterKey []byte, maxBytes int64, want []ring.Range, err error) {
	r := codec.NewReader(data)
	afterKey, maxBytes = r.Bytes(), int64(r.U64())
	if r.Err() == nil && r.Pos() < len(data) {
		count := r.Count(2 * keyspace.Size)
		want = make([]ring.Range, count)
		for i := 0; i < count && r.Err() == nil; i++ {
			copy(want[i].Lo[:], r.Fixed(keyspace.Size))
			copy(want[i].Hi[:], r.Fixed(keyspace.Size))
		}
	}
	if err := r.Done("cluster: fetch request"); err != nil {
		return nil, 0, nil, err
	}
	return afterKey, maxBytes, want, nil
}

// encodeFetchResp: done(1) | count uvarint | (k bytes | v bytes)*.
func encodeFetchResp(pairs []kvstore.KV, done bool) []byte {
	out := make([]byte, 1, 64)
	if done {
		out[0] = 1
	}
	out = binary.AppendUvarint(out, uint64(len(pairs)))
	for _, kv := range pairs {
		out = codec.AppendBytes(out, kv.Key)
		out = codec.AppendBytes(out, kv.Val)
	}
	return out
}

func decodeFetchResp(data []byte) (pairs []kvstore.KV, done bool, err error) {
	r := codec.NewReader(data)
	done = r.U8() == 1
	count := r.Count(2) // two length bytes per pair
	pairs = make([]kvstore.KV, 0, count)
	for i := 0; i < count && r.Err() == nil; i++ {
		pairs = append(pairs, kvstore.KV{Key: r.Bytes(), Val: r.Bytes()})
	}
	if err := r.Done("cluster: fetch response"); err != nil {
		return nil, false, err
	}
	return pairs, done, nil
}

// digestGroup buckets a local key for divergence summaries: per-relation
// for catalog/coordinator/page records, and 16 hash-prefix buckets for
// tuple records (whose keys carry no relation name).
func digestGroup(k []byte) (string, bool) {
	if len(k) < 2 {
		return "", false
	}
	switch {
	case k[0] == 'c' && k[1] == '/':
		return "rel:" + string(k[2:]), true
	case k[0] == 'r' && k[1] == '/' && len(k) >= 2+9:
		return "rel:" + string(k[2:len(k)-9]), true
	case k[0] == 'p' && k[1] == '/' && len(k) >= 2+13:
		return "rel:" + string(k[2:len(k)-13]), true
	case k[0] == 't' && k[1] == '/' && len(k) >= 2+keyspace.Size:
		return fmt.Sprintf("t:%x", k[2]>>4), true
	default:
		return "", false
	}
}

// keyEpoch extracts the epoch embedded in a local key (0 when none).
func keyEpoch(k []byte) uint64 {
	if len(k) < 2 || k[1] != '/' {
		return 0
	}
	var tail int // where the epoch starts, counted from the key's end
	switch {
	case k[0] == 'r' && len(k) >= 2+9:
		tail = 8
	case k[0] == 'p' && len(k) >= 2+13:
		tail = 12 // the page's sequence number follows its epoch
	case k[0] == 't' && len(k) >= 2+keyspace.Size+9:
		tail = 8
	default:
		return 0
	}
	r := codec.NewReader(k[len(k)-tail:])
	return r.U64()
}

type groupDigest struct {
	name     string
	count    uint64
	xor      uint64 // order-independent XOR of per-record FNV-64a hashes
	maxEpoch uint64
}

// computeDigest summarizes the records this node shares with peer:
// {k : self ∈ Replicas(k) AND peer ∈ Replicas(k)} under the current
// table, grouped by digestGroup.
func (n *Node) computeDigest(peer ring.NodeID) []groupDigest {
	table := n.Table()
	acc := map[string]*groupDigest{}
	n.store.Scan(nil, nil, func(k, v []byte) bool {
		placement, ok := placementOf(k, v)
		if !ok {
			return true
		}
		if !table.IsReplica(n.id, placement) || !table.IsReplica(peer, placement) {
			return true
		}
		g, ok := digestGroup(k)
		if !ok {
			return true
		}
		d := acc[g]
		if d == nil {
			d = &groupDigest{name: g}
			acc[g] = d
		}
		h := fnv.New64a()
		h.Write(k)
		h.Write([]byte{0})
		h.Write(v)
		d.count++
		d.xor ^= h.Sum64()
		if e := keyEpoch(k); e > d.maxEpoch {
			d.maxEpoch = e
		}
		return true
	})
	out := make([]groupDigest, 0, len(acc))
	for _, d := range acc {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// encodeDigest: count uvarint | (name bytes | count uvarint | xor(8) |
// maxEpoch(8))*.
func encodeDigest(groups []groupDigest) []byte {
	out := binary.AppendUvarint(nil, uint64(len(groups)))
	for _, g := range groups {
		out = codec.AppendBytes(out, []byte(g.name))
		out = binary.AppendUvarint(out, g.count)
		var b [16]byte
		binary.BigEndian.PutUint64(b[:], g.xor)
		binary.BigEndian.PutUint64(b[8:], g.maxEpoch)
		out = append(out, b[:]...)
	}
	return out
}

func decodeDigest(data []byte) ([]groupDigest, error) {
	r := codec.NewReader(data)
	count := r.Count(18) // name length, count, xor, maxEpoch
	out := make([]groupDigest, 0, count)
	for i := 0; i < count && r.Err() == nil; i++ {
		out = append(out, groupDigest{name: r.Str(), count: r.Uvarint(), xor: r.U64(), maxEpoch: r.U64()})
	}
	if err := r.Done("cluster: digest"); err != nil {
		return nil, err
	}
	return out, nil
}

func digestsEqual(a, b []groupDigest) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// digestAhead reports whether a holds any group provably fresher than
// b's: a group b lacks entirely, or one whose newest embedded epoch is
// newer. Freshness comes from the keys actually present, so a node that
// merely gossiped a high epoch without the data behind it is not ahead.
func digestAhead(a, b []groupDigest) bool {
	byName := make(map[string]groupDigest, len(b))
	for _, g := range b {
		byName[g.name] = g
	}
	for _, g := range a {
		tg, ok := byName[g.name]
		if !ok || g.maxEpoch > tg.maxEpoch {
			return true
		}
	}
	return false
}

// --- handlers ---

// registerRepairHandlers installs the repair RPCs.
func (n *Node) registerRepairHandlers() {
	n.ep.Handle(msgReplStatus, func(from ring.NodeID, payload []byte) ([]byte, error) {
		seq, first := n.store.ReplStatus()
		return encodeReplStatus(seq, first, n.store.Epoch()), nil
	})
	n.ep.Handle(msgWalShip, func(from ring.NodeID, payload []byte) ([]byte, error) {
		after, maxBytes, err := decodeShipReq(payload)
		if err != nil {
			return nil, err
		}
		if maxBytes <= 0 || maxBytes > shipBatchBytes*8 {
			maxBytes = shipBatchBytes
		}
		recs, more, truncated := n.store.ShipLog(after, maxBytes)
		return encodeShipResp(recs, more, truncated), nil
	})
	n.ep.Handle(msgReplDigest, func(from ring.NodeID, payload []byte) ([]byte, error) {
		return encodeDigest(n.computeDigest(from)), nil
	})
	n.ep.Handle(msgReplFetch, func(from ring.NodeID, payload []byte) ([]byte, error) {
		afterKey, maxBytes, want, err := decodeFetchReq(payload)
		if err != nil {
			return nil, err
		}
		if maxBytes <= 0 || maxBytes > fetchBatchBytes*8 {
			maxBytes = fetchBatchBytes
		}
		// Every record the requester replicates (within want, when it
		// names ranges), whether or not this node still does: a node that
		// lost a range in a move hands it over.
		table := n.Table()
		var pairs []kvstore.KV
		var budget int64
		done := true
		lo := prefixEndKey(afterKey)
		n.store.Scan(lo, nil, func(k, v []byte) bool {
			placement, ok := placementOf(k, v)
			if !ok || !inRanges(want, placement) || !table.IsReplica(from, placement) {
				return true
			}
			if budget+int64(len(k)+len(v)) > maxBytes && len(pairs) > 0 {
				done = false
				return false
			}
			pairs = append(pairs, kvstore.KV{
				Key: append([]byte(nil), k...),
				Val: append([]byte(nil), v...),
			})
			budget += int64(len(k) + len(v))
			return true
		})
		return encodeFetchResp(pairs, done), nil
	})
}

// inRanges reports whether k lies in one of want; no ranges admit all.
func inRanges(want []ring.Range, k keyspace.Key) bool {
	return len(want) == 0 || slices.ContainsFunc(want, func(r ring.Range) bool { return r.Contains(k) })
}

// prefixEndKey returns the smallest key strictly greater than k (for
// exclusive-start scans); nil input means scan from the beginning.
func prefixEndKey(k []byte) []byte {
	if len(k) == 0 {
		return nil
	}
	return append(append([]byte(nil), k...), 0)
}

// --- markers ---

func markerKey(peer ring.NodeID) []byte {
	return append([]byte(replMarkerPrefix), peer...)
}

// peerMarker returns the last peer-log position pulled from peer.
// synced is false when this node has never established a position with
// the peer — distinct from a marker at position zero, which means the
// sync point predates all of the peer's mutations (a cluster-birth
// baseline) and everything ships via the ordinary WAL path.
func (n *Node) peerMarker(peer ring.NodeID) (seq uint64, synced bool) {
	v, ok := n.store.Get(markerKey(peer))
	r := codec.NewReader(v)
	seq = r.U64()
	return seq, ok && r.Done("cluster: peer marker") == nil
}

// setPeerMarker durably records the peer-log position. Markers are
// node-private bookkeeping: a PutLocal keeps them out of the shipping
// sequence, so advancing a marker never looks like a fresh mutation to
// the peers watching this node's log.
func (n *Node) setPeerMarker(peer ring.NodeID, seq uint64) error {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	return n.store.PutLocal(markerKey(peer), b[:])
}

// --- catch-up ---

// replStatusOf asks peer for its shipping position.
func (n *Node) replStatusOf(ctx context.Context, peer ring.NodeID) (seq, firstAvail, epoch uint64, err error) {
	rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
	resp, err := n.ep.Request(rctx, peer, msgReplStatus, nil)
	cancel()
	if err != nil {
		return 0, 0, 0, err
	}
	return decodeReplStatus(resp)
}

// CatchUp pulls the delta this node missed from peer's log and replays
// its writes through the normal commit path, filtered to the placements
// this node replicates. When peer has truncated past our position, it
// falls back to a full state transfer. Returns the number of records
// applied.
func (n *Node) CatchUp(ctx context.Context, peer ring.NodeID) (uint64, error) {
	t0 := time.Now()
	defer func() { n.repair.lastCatchUpUs.Store(time.Since(t0).Microseconds()) }()
	var applied uint64
	for {
		marker, _ := n.peerMarker(peer)
		rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		resp, err := n.ep.Request(rctx, peer, msgWalShip, encodeShipReq(marker, shipBatchBytes))
		cancel()
		if err != nil {
			return applied, err
		}
		recs, more, truncated, err := decodeShipResp(resp)
		if err != nil {
			return applied, err
		}
		if truncated {
			// Peer's log no longer reaches back to our position: the
			// snapshot-transfer fallback. We are the lagging side pulling
			// from an authoritative peer, so stale local-only records may
			// be deleted.
			n.repair.stateTransfers.Add(1)
			if err := n.stateTransfer(ctx, peer, true, nil); err != nil {
				return applied, err
			}
			return applied, nil
		}
		if len(recs) == 0 {
			return applied, nil
		}
		a, err := n.applyShipped(recs)
		applied += a
		if err != nil {
			return applied, err
		}
		n.repair.catchUpBatches.Add(1)
		if err := n.setPeerMarker(peer, recs[len(recs)-1].Seq); err != nil {
			return applied, err
		}
		if !more {
			return applied, nil
		}
		if err := ctx.Err(); err != nil {
			return applied, err
		}
	}
}

// applyShipped replays shipped records: epoch raises go through the
// gossiper (which persists them), writes are filtered to the placements
// this node replicates and applied in one batched commit. Records whose
// effect is already present locally are skipped, so steady-state
// anti-entropy is read-only. Shipped deletes are skipped too: the peer
// deleted a record it no longer replicates, or one it judged stale, and
// neither decision is this node's to repeat.
func (n *Node) applyShipped(recs []kvstore.ReplRecord) (uint64, error) {
	// The batch replays a contiguous log suffix, so only each key's
	// final op determines the outcome. Compress to last-op-per-key
	// before the present-locally checks: applying a stale intermediate
	// version while skipping its byte-equal final one would regress the
	// key to the older value.
	final := make([]kvstore.ReplOp, 0, len(recs))
	idx := make(map[string]int, len(recs))
	for _, rec := range recs {
		op, err := rec.Decode()
		if err != nil {
			if errors.Is(err, kvstore.ErrUnknownOp) {
				continue // version skew: newer peer record kinds are ignored
			}
			return 0, err
		}
		if op.Epoch > 0 {
			n.gsp.Advance(tuple.Epoch(op.Epoch))
			continue
		}
		if i, ok := idx[string(op.Key)]; ok {
			final[i] = op
			continue
		}
		idx[string(op.Key)] = len(final)
		final = append(final, op)
	}

	table := n.Table()
	ops := make([]kvstore.ReplOp, 0, len(final))
	var applied uint64
	for _, op := range final {
		if op.Del {
			n.repair.catchUpSkipped.Add(1)
			continue
		}
		placement, pok := placementOf(op.Key, op.Val)
		if !pok || !table.IsReplica(n.id, placement) {
			n.repair.catchUpSkipped.Add(1)
			continue
		}
		if lv, ok := n.store.GetRetained(op.Key); ok && bytes.Equal(lv, op.Val) {
			n.repair.catchUpSkipped.Add(1)
			continue
		}
		if op.Key[0] == 'c' && n.catalogRegresses(op.Key, op.Val) {
			n.repair.catchUpSkipped.Add(1)
			continue
		}
		ops = append(ops, op)
		applied++
	}
	if len(ops) == 0 {
		return 0, nil
	}
	if err := n.store.ApplyBatch(ops); err != nil {
		return 0, err
	}
	n.repair.catchUpRecords.Add(applied)
	return applied, nil
}

// catalogRegresses reports whether adopting val for the catalog record
// at key would move its published-epoch history backwards relative to
// the local copy. Catalog records are mutable under a fixed key, so a
// replayed log suffix (or a fetched snapshot of a concurrently-written
// peer) can carry versions older than what direct replication already
// delivered; epoch histories only ever grow, which makes the newest
// epoch a safe freshness order.
func (n *Node) catalogRegresses(key, val []byte) bool {
	lv, ok := n.store.GetRetained(key)
	if !ok {
		return false
	}
	local, err := vstore.DecodeCatalog(lv)
	if err != nil {
		return false
	}
	shipped, err := vstore.DecodeCatalog(val)
	if err != nil {
		return true // never replace a parseable catalog with garbage
	}
	return newestEpoch(shipped) < newestEpoch(local)
}

func newestEpoch(c *vstore.Catalog) tuple.Epoch {
	if len(c.Epochs) == 0 {
		return 0
	}
	return c.Epochs[len(c.Epochs)-1]
}

// stateTransfer replaces WAL catch-up when the peer's log history is
// gone, and is the pull of a membership change: a chunked ordered copy of
// every record the peer holds that this node replicates (within want, when
// it names ranges), applying differences and — when deletes is true —
// deleting local records the peer lacks though it replicates them too
// (only when their embedded epoch is at or below the peer's — a fresher
// local write must survive — and never catalog records). Callers pass
// deletes=false when this node may hold fresher records than the peer, so
// the pull only adds. A pull narrowed to want leaves the catch-up marker
// alone, since it has not read the rest of the peer's log.
func (n *Node) stateTransfer(ctx context.Context, peer ring.NodeID, deletes bool, want []ring.Range) error {
	// Record the peer's position first: everything the transfer misses
	// lands after this seq and arrives via the next WAL catch-up.
	peerSeq, _, peerEpoch, err := n.replStatusOf(ctx, peer)
	if err != nil {
		return err
	}
	table := n.Table()
	var after []byte
	for {
		rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
		resp, err := n.ep.Request(rctx, peer, msgReplFetch, encodeFetchReq(after, fetchBatchBytes, want))
		cancel()
		if err != nil {
			return err
		}
		pairs, done, err := decodeFetchResp(resp)
		if err != nil {
			return err
		}
		// The chunk covers (after, hi] of the shared keyspace; when the
		// peer is done it covers (after, +inf).
		var hi []byte
		if !done {
			if len(pairs) == 0 {
				return errors.New("cluster: fetch returned no progress")
			}
			hi = pairs[len(pairs)-1].Key
		}
		if err := n.mergeFetched(table, peer, peerEpoch, after, hi, pairs, deletes); err != nil {
			return err
		}
		if done {
			break
		}
		after = append([]byte(nil), hi...)
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if len(want) > 0 {
		return nil
	}
	return n.setPeerMarker(peer, peerSeq)
}

// mergeFetched reconciles one fetched chunk against the local store:
// missing or differing records are applied, unless a catalog would
// regress; local records the peer lacks though both nodes replicate them
// are deleted when provably stale (and deletes is set).
func (n *Node) mergeFetched(table *ring.Table, peer ring.NodeID, peerEpoch uint64, after, hi []byte, pairs []kvstore.KV, deletes bool) error {
	// Local keys this node replicates in (after, hi] — or (after, +inf)
	// for the final chunk — in key order, mirroring the peer's scan
	// predicate.
	type local struct {
		k, v   []byte
		shared bool // the peer replicates it too
	}
	var locals []local
	lo := prefixEndKey(after)
	var scanHi []byte
	if hi != nil {
		scanHi = prefixEndKey(hi) // inclusive upper bound
	}
	n.store.Scan(lo, scanHi, func(k, v []byte) bool {
		placement, ok := placementOf(k, v)
		if !ok {
			return true
		}
		reps := table.Replicas(placement)
		if !slices.Contains(reps, n.id) {
			return true
		}
		locals = append(locals, local{append([]byte(nil), k...), v, slices.Contains(reps, peer)})
		return true
	})

	// Merge-join: both sides sorted.
	var ops []kvstore.ReplOp
	i, j := 0, 0
	for i < len(pairs) || j < len(locals) {
		var cmp int
		switch {
		case i >= len(pairs):
			cmp = 1
		case j >= len(locals):
			cmp = -1
		default:
			cmp = bytes.Compare(pairs[i].Key, locals[j].k)
		}
		switch {
		case cmp < 0: // peer-only: adopt
			ops = append(ops, kvstore.ReplOp{Key: pairs[i].Key, Val: pairs[i].Val})
			n.repair.fetchedKeys.Add(1)
			i++
		case cmp > 0: // local-only: delete if provably stale
			k := locals[j].k
			if deletes && locals[j].shared && k[0] != 'c' && keyEpoch(k) <= peerEpoch {
				ops = append(ops, kvstore.ReplOp{Del: true, Key: k})
				n.repair.mergeDeletes.Add(1)
			}
			j++
		default:
			if !bytes.Equal(pairs[i].Val, locals[j].v) &&
				!(pairs[i].Key[0] == 'c' && n.catalogRegresses(pairs[i].Key, pairs[i].Val)) {
				ops = append(ops, kvstore.ReplOp{Key: pairs[i].Key, Val: pairs[i].Val})
				n.repair.fetchedKeys.Add(1)
			}
			i++
			j++
		}
	}
	if len(ops) == 0 {
		return nil
	}
	return n.store.ApplyBatch(ops)
}

// --- anti-entropy ---

// RepairPeer runs one repair round against peer: WAL catch-up from the
// durable marker, then a digest comparison; divergence triggers a state
// transfer. Returns true when a repair beyond catch-up was needed.
//
// A node with no marker for the peer has never synced with it, and the
// missed-delta question is unanswerable: replaying the peer's log from
// zero would re-apply stale intermediate versions of records this node
// already holds fresher. So the first round goes straight to the digest
// comparison: matching digests just initialize the marker to the peer's
// position (records shipped twice later apply idempotently), diverging
// ones trigger the state transfer that would be needed anyway. Markers
// initialize cheaply at cluster birth — every store is empty, digests
// trivially match — so steady-state repair is pure WAL catch-up.
func (n *Node) RepairPeer(ctx context.Context, peer ring.NodeID) (repaired bool, err error) {
	return n.repairPeer(ctx, peer, true)
}

// repairPeer is RepairPeer with the digest comparison optional. Catch-up
// is incremental — an idle round ships nothing — but a digest scans the
// whole store on both sides, so the background loop only asks for one
// every few rotations. A first contact (no marker) always digests: the
// marker cannot initialize without one.
func (n *Node) repairPeer(ctx context.Context, peer ring.NodeID, withDigest bool) (repaired bool, err error) {
	_, synced := n.peerMarker(peer)
	first := !synced
	var baseline uint64
	if first {
		baseline, _, _, err = n.replStatusOf(ctx, peer)
		if err != nil {
			return false, err
		}
	} else if _, err := n.CatchUp(ctx, peer); err != nil {
		return false, err
	}
	if !withDigest && !first {
		return false, nil
	}
	rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
	resp, err := n.ep.Request(rctx, peer, msgReplDigest, nil)
	cancel()
	if err != nil {
		return false, err
	}
	theirs, err := decodeDigest(resp)
	if err != nil {
		return false, err
	}
	mine := n.computeDigest(peer)
	if digestsEqual(mine, theirs) {
		if first {
			if err := n.setPeerMarker(peer, baseline); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	// Divergence. The digest only says the shared sets differ, not who is
	// right: adopting the state of a peer that is merely behind (a
	// rejoining replica mid catch-up) would merge-delete records it has
	// not received yet — its gossiped epoch runs ahead of its data. When
	// this node is strictly fresher, skip; the peer repairs itself by
	// pulling from us. When both sides hold fresh records the transfer
	// runs add-only, so divergence repair never destroys the newer write.
	selfAhead := digestAhead(mine, theirs)
	if selfAhead && !digestAhead(theirs, mine) {
		return false, nil
	}
	n.repair.antiEntropyRepairs.Add(1)
	n.repair.stateTransfers.Add(1)
	if err := n.stateTransfer(ctx, peer, !selfAhead, nil); err != nil {
		return true, err
	}
	return true, nil
}

// Repair runs one repair round against every other table member. A
// rejoining node calls this before serving to reach the cluster's
// durable state through WAL catch-up instead of a full state transfer.
func (n *Node) Repair(ctx context.Context) error {
	var lastErr error
	for _, peer := range n.Table().Members() {
		if peer == n.id {
			continue
		}
		if _, err := n.RepairPeer(ctx, peer); err != nil {
			lastErr = fmt.Errorf("cluster: repair via %s: %w", peer, err)
		}
	}
	n.repair.antiEntropyRounds.Add(1)
	return lastErr
}

// StartRepair launches the low-priority background anti-entropy loop:
// every interval, one repair round against a rotating peer. Every round
// runs WAL catch-up; the full-scan digest comparison runs once every
// repairDigestEvery rotations through the peer list, keeping the
// steady-state cost independent of the amount of stored data.
func (n *Node) StartRepair(interval time.Duration) {
	if n.repair.stop != nil {
		return
	}
	n.repair.stop = make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var turn int
		for {
			select {
			case <-n.repair.stop:
				return
			case <-ticker.C:
			}
			members := n.Table().Members()
			var peers []ring.NodeID
			for _, m := range members {
				if m != n.id {
					peers = append(peers, m)
				}
			}
			if len(peers) == 0 {
				continue
			}
			peer := peers[turn%len(peers)]
			withDigest := (turn/len(peers))%repairDigestEvery == 0
			turn++
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RequestTimeout*4)
			_, _ = n.repairPeer(ctx, peer, withDigest)
			cancel()
			n.repair.antiEntropyRounds.Add(1)
		}
	}()
}

// StopRepair halts the background anti-entropy loop.
func (n *Node) StopRepair() {
	if n.repair.stop != nil && n.repair.stopped.CompareAndSwap(false, true) {
		close(n.repair.stop)
	}
}

// ReplStats snapshots the repair counters and the current lag view. Lag
// to a peer is (the peer's gossiped seq) − (our durable marker for it):
// raw seqs are per-store and incomparable across nodes, but the marker
// difference is exactly the peer's shippable backlog we have not pulled.
func (n *Node) ReplStats() obs.ReplStats {
	st := obs.ReplStats{
		CatchUpBatches:     n.repair.catchUpBatches.Load(),
		CatchUpRecords:     n.repair.catchUpRecords.Load(),
		CatchUpSkipped:     n.repair.catchUpSkipped.Load(),
		StateTransfers:     n.repair.stateTransfers.Load(),
		AntiEntropyRounds:  n.repair.antiEntropyRounds.Load(),
		AntiEntropyRepairs: n.repair.antiEntropyRepairs.Load(),
		FetchedKeys:        n.repair.fetchedKeys.Load(),
		MergeDeletes:       n.repair.mergeDeletes.Load(),
		LastCatchUpUs:      n.repair.lastCatchUpUs.Load(),
	}
	peerSeqs := n.gsp.PeerSeqs()
	if len(peerSeqs) > 0 {
		st.PeerLags = make(map[string]uint64, len(peerSeqs))
	}
	for peer, seq := range peerSeqs {
		var lag uint64
		if m, _ := n.peerMarker(peer); seq > m {
			lag = seq - m
		}
		st.PeerLags[string(peer)] = lag
		if lag > st.MaxLag {
			st.MaxLag = lag
		}
	}
	return st
}
