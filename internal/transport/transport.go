// Package transport is the reliable, message-based networking layer with
// flow control that the substrate requires (paper §III-B), and the failure
// detector of §V-A/§V-C.
//
// There is one Endpoint implementation (endpoint.go). It owns everything a
// node can observe — handlers, request/reply matching, delivery order,
// peer-down — and sits on a carrier that only moves frames and reports lost
// links. There are two carriers: the simulated Network (sim.go: per-link
// latency, per-node bandwidth shaping, byte-accurate accounting, Kill/Hang;
// the paper's NetEm/HTB setup of §VI-C) and TCP (tcp.go: one direct
// connection per peer, the paper's single-hop design). What follows holds
// on both, and TestEndpointContract runs every clause on both.
//
// Delivery. Messages from one sender to one receiver arrive in the order
// they were sent. A node handles one message at a time, on one delivery
// goroutine, in arrival order; replies to its own requests and its
// self-addressed messages pass through the same queue. A handler must
// therefore never wait for a Request of its own — the reply is queued
// behind it. The queue is unbounded: back-pressure on the sender is the
// carrier's (bandwidth shaping, a full TCP socket) and covers bytes in
// flight, not messages a slow handler has yet to reach.
//
// Requests. A Request returns the peer handler's reply; its error as a
// *RemoteError (ErrNoHandler's text when the type has no handler); the
// context's error when that ends first; ErrClosed when the local endpoint
// closes; and ErrPeerDown as soon as the peer is reported down — never
// later, whatever the context's deadline. A Send or Request to a peer the
// carrier cannot reach fails with ErrPeerDown straight away.
//
// Peer-down. A peer is reported down when a carrier loses its link to it
// (§V-A: the connection drops) or when a Pinger's probe goes unanswered
// (§V-C: a hung machine keeps its connections). Both enter
// endpoint.peerDown, which first fails every pending request to that peer
// and then runs the OnPeerDown subscribers, once per failure: further
// reports of the same peer fail newer requests but stay silent until a
// message from it arrives, which re-arms the notification — a peer that
// rejoins and dies again is reported again.
//
// Close. Close fails the endpoint's own pending requests with ErrClosed and
// detaches it. On the simulated Network that is a departure: peers are not
// notified (sends to it fail with ErrPeerDown); only Kill is a failure. On
// TCP the peers see their connections drop, which is indistinguishable from
// a crash, so they report the node down.
package transport

import (
	"context"
	"errors"
	"fmt"

	"orchestra/internal/ring"
)

// MsgType identifies the semantics of a message; higher layers define their
// own constants. Values at and above reservedBase are reserved for the
// transport itself (pings, RPC replies); Send and Request reject them.
type MsgType uint16

const (
	reservedBase MsgType = 0xFF00
	typePing     MsgType = 0xFF01
	typeReply    MsgType = 0xFF02
	typeErrReply MsgType = 0xFF03
)

// HandlerFunc processes an incoming message. For one-way messages the return
// values are ignored. For requests, the returned payload is sent back as the
// reply, and a non-nil error is propagated to the requester.
type HandlerFunc func(from ring.NodeID, payload []byte) ([]byte, error)

// Endpoint is one node's attachment to the network. The package comment is
// its contract.
type Endpoint interface {
	// ID returns this node's identity.
	ID() ring.NodeID
	// Send delivers a one-way message reliably and in order per link.
	// It may block briefly under bandwidth shaping (flow control).
	Send(to ring.NodeID, mtype MsgType, payload []byte) error
	// Request performs an RPC: it sends the message and waits for the
	// peer's handler to return a reply, honoring ctx cancellation.
	Request(ctx context.Context, to ring.NodeID, mtype MsgType, payload []byte) ([]byte, error)
	// Handle registers the handler for a message type. It must be called
	// before messages of that type arrive; handlers run on the endpoint's
	// delivery goroutine, one message at a time.
	Handle(mtype MsgType, h HandlerFunc)
	// OnPeerDown registers a callback invoked once per peer failure.
	// Callbacks run on their own goroutine.
	OnPeerDown(fn func(ring.NodeID))
	// Close detaches the endpoint from the network.
	Close() error

	// ping probes a peer and reports it down if no pong comes back. It
	// is how a Pinger's verdict reaches peerDown — and, being unexported,
	// what keeps endpoint the only implementation.
	ping(ctx context.Context, to ring.NodeID)
}

// Errors returned by endpoints.
var (
	// ErrPeerDown indicates the destination is unreachable or was
	// reported down while a request to it was pending.
	ErrPeerDown = errors.New("transport: peer down")
	// ErrClosed indicates the local endpoint is closed.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrNoHandler indicates the peer has no handler for the message type.
	ErrNoHandler = errors.New("transport: no handler for message type")
)

// RemoteError wraps an error string returned by a remote handler.
type RemoteError struct {
	Peer ring.NodeID
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote error from %s: %s", e.Peer, e.Msg)
}
