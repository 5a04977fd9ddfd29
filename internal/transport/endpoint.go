package transport

import (
	"context"
	"fmt"
	"sync"

	"orchestra/internal/ring"
)

// frame is one message as a carrier moves it.
type frame struct {
	from    ring.NodeID
	mtype   MsgType
	reqID   uint64 // nonzero for requests and their replies
	payload []byte
}

// frameHeader is the fixed part of a frame's encoding (tcp.go): u32 length,
// u16 type, u64 request id, u16 sender length. frameFixed is the part the
// length counts.
const (
	frameHeader = 16
	frameFixed  = frameHeader - 4
)

// wireSize is the frame's encoded size: the bytes TCP writes and the bytes
// the simulated network accounts.
func (f frame) wireSize() int { return frameHeader + len(f.from) + len(f.payload) }

// carrier moves frames between endpoints and knows nothing of what they
// mean. It hands each arriving frame to the endpoint's receive, in sending
// order per peer, and reports a lost link through the endpoint's peerDown.
type carrier interface {
	// send moves one frame to a peer: ErrPeerDown when the peer cannot
	// be reached, ErrClosed once the carrier is closed.
	send(to ring.NodeID, f frame) error
	// close detaches from the network.
	close() error
}

// rpcResult carries a reply or failure to a waiting requester.
type rpcResult struct {
	payload []byte
	err     error
}

// pendingReq is an outstanding request, kept by peer so that it fails with
// that peer.
type pendingReq struct {
	peer ring.NodeID
	ch   chan rpcResult // buffered 1; written once, by whoever removes the entry
}

// endpoint is the implementation of Endpoint, on either carrier.
type endpoint struct {
	id ring.NodeID
	c  carrier

	mu       sync.Mutex
	cond     *sync.Cond
	inbox    []frame
	closed   bool
	paused   bool // Network.Hang: nothing is handled, pings included
	handlers map[MsgType]HandlerFunc
	downFns  []func(ring.NodeID)
	down     map[ring.NodeID]bool // reported down, not heard from since
	pending  map[uint64]pendingReq
	nextReq  uint64
}

func newEndpoint(id ring.NodeID, c carrier) *endpoint {
	e := &endpoint{
		id:       id,
		c:        c,
		handlers: make(map[MsgType]HandlerFunc),
		down:     make(map[ring.NodeID]bool),
		pending:  make(map[uint64]pendingReq),
	}
	e.cond = sync.NewCond(&e.mu)
	go e.deliveryLoop()
	return e
}

func (e *endpoint) ID() ring.NodeID { return e.id }

func (e *endpoint) Handle(mtype MsgType, h HandlerFunc) {
	e.mu.Lock()
	e.handlers[mtype] = h
	e.mu.Unlock()
}

func (e *endpoint) OnPeerDown(fn func(ring.NodeID)) {
	e.mu.Lock()
	e.downFns = append(e.downFns, fn)
	e.mu.Unlock()
}

func (e *endpoint) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

func (e *endpoint) pause(p bool) {
	e.mu.Lock()
	e.paused = p
	e.mu.Unlock()
	e.cond.Broadcast()
}

func checkType(mtype MsgType) error {
	if mtype >= reservedBase {
		return fmt.Errorf("transport: message type %#x is reserved", uint16(mtype))
	}
	return nil
}

func (e *endpoint) Send(to ring.NodeID, mtype MsgType, payload []byte) error {
	if err := checkType(mtype); err != nil {
		return err
	}
	return e.deliver(to, frame{from: e.id, mtype: mtype, payload: payload})
}

func (e *endpoint) Request(ctx context.Context, to ring.NodeID, mtype MsgType, payload []byte) ([]byte, error) {
	if err := checkType(mtype); err != nil {
		return nil, err
	}
	return e.request(ctx, to, mtype, payload)
}

func (e *endpoint) ping(ctx context.Context, to ring.NodeID) {
	if _, err := e.request(ctx, to, typePing, nil); err != nil {
		e.peerDown(to)
	}
}

func (e *endpoint) request(ctx context.Context, to ring.NodeID, mtype MsgType, payload []byte) ([]byte, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.nextReq++
	reqID := e.nextReq
	ch := make(chan rpcResult, 1)
	e.pending[reqID] = pendingReq{peer: to, ch: ch}
	e.mu.Unlock()

	defer func() {
		e.mu.Lock()
		delete(e.pending, reqID)
		e.mu.Unlock()
	}()

	if err := e.deliver(to, frame{from: e.id, mtype: mtype, reqID: reqID, payload: payload}); err != nil {
		return nil, err
	}
	select {
	case res := <-ch:
		return res.payload, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliver routes an outgoing frame: a self-addressed one goes straight to
// the inbox and never touches the carrier.
func (e *endpoint) deliver(to ring.NodeID, f frame) error {
	if to != e.id {
		return e.c.send(to, f)
	}
	if !e.receive(f) {
		return ErrClosed
	}
	return nil
}

// receive queues an arriving frame for the delivery loop; it reports false
// once the endpoint is closed. Hearing from a peer re-arms its peer-down
// notification.
func (e *endpoint) receive(f frame) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	if len(e.down) > 0 {
		delete(e.down, f.from)
	}
	e.inbox = append(e.inbox, f)
	e.mu.Unlock()
	e.cond.Signal()
	return true
}

func (e *endpoint) deliveryLoop() {
	for {
		e.mu.Lock()
		for (len(e.inbox) == 0 || e.paused) && !e.closed {
			e.cond.Wait()
		}
		if e.closed {
			e.mu.Unlock()
			return
		}
		f := e.inbox[0]
		e.inbox = e.inbox[1:]
		e.mu.Unlock()
		e.dispatch(f)
	}
}

func (e *endpoint) dispatch(f frame) {
	switch f.mtype {
	case typePing:
		// Application-level pong: a hung machine never reaches here.
		_ = e.deliver(f.from, frame{from: e.id, mtype: typeReply, reqID: f.reqID})
	case typeReply, typeErrReply:
		e.mu.Lock()
		pr, ok := e.pending[f.reqID]
		delete(e.pending, f.reqID)
		e.mu.Unlock()
		if !ok {
			return // the requester gave up, or the peer was reported down
		}
		if f.mtype == typeErrReply {
			pr.ch <- rpcResult{err: &RemoteError{Peer: f.from, Msg: string(f.payload)}}
		} else {
			pr.ch <- rpcResult{payload: f.payload}
		}
	default:
		e.mu.Lock()
		h := e.handlers[f.mtype]
		e.mu.Unlock()
		if f.reqID == 0 {
			if h != nil {
				_, _ = h(f.from, f.payload)
			}
			return
		}
		reply := frame{from: e.id, mtype: typeReply, reqID: f.reqID}
		if h == nil {
			reply.mtype = typeErrReply
			reply.payload = []byte(fmt.Sprintf("%v: %d", ErrNoHandler, f.mtype))
		} else if out, err := h(f.from, f.payload); err != nil {
			reply.mtype = typeErrReply
			reply.payload = []byte(err.Error())
		} else {
			reply.payload = out
		}
		// A requester that died meanwhile needs no reply.
		_ = e.deliver(f.from, reply)
	}
}

// peerDown is where every failure detector reports: a carrier that lost its
// link to id, and a ping that id did not answer. It fails the pending
// requests to id, then notifies the OnPeerDown subscribers unless id has
// already been reported and not heard from since.
func (e *endpoint) peerDown(id ring.NodeID) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	var failed []chan rpcResult
	for reqID, pr := range e.pending {
		if pr.peer == id {
			failed = append(failed, pr.ch)
			delete(e.pending, reqID)
		}
	}
	var fns []func(ring.NodeID)
	if !e.down[id] {
		e.down[id] = true
		fns = append(fns, e.downFns...)
	}
	e.mu.Unlock()
	for _, ch := range failed {
		ch <- rpcResult{err: fmt.Errorf("%w: %s", ErrPeerDown, id)}
	}
	for _, fn := range fns {
		go fn(id)
	}
}

// shutdown stops delivery and fails every pending request with ErrClosed.
func (e *endpoint) shutdown() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	pend := e.pending
	e.pending = map[uint64]pendingReq{}
	e.inbox = nil
	e.mu.Unlock()
	e.cond.Broadcast()
	for _, pr := range pend {
		pr.ch <- rpcResult{err: ErrClosed}
	}
}

func (e *endpoint) Close() error {
	e.shutdown()
	return e.c.close()
}
