package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"orchestra/internal/codec"
	"orchestra/internal/ring"
)

// TCPEndpoint is the endpoint on the real-network carrier, matching the
// paper's design choice (§III-B): a direct TCP connection to each node —
// single-hop communication with TCP's flow control and almost-immediate
// failure detection via dropped connections (§V-A). The node's identity is
// its listen address ("host:port"), so a node's ring position is the SHA-1
// hash of its address, as in the paper.
//
// Everything a node observes is the embedded endpoint; this type is only
// the carrier: listen, dial, framing, and connection retirement.
//
// Wire format, length-prefixed frames:
//
//	u32 frameLen | u16 msgType | u64 reqID | u16 senderLen | sender | payload
//
// A node writes only on the connections it dialed, one per peer, so
// per-link FIFO ordering — which the query engine's end-of-stream protocol
// relies on — is inherited from TCP; replies travel on the replier's own
// connection back. On a dialed connection a node reads only to see it break.
// When any connection to or from a peer breaks, or a dial fails, all of that
// peer's connections are retired at once and the peer is reported down: the
// next send dials afresh rather than writing into a dead socket.
type TCPEndpoint struct {
	*endpoint
	ln          net.Listener
	dialTimeout time.Duration

	mu     sync.Mutex
	out    map[ring.NodeID]*tcpConn
	peerOf map[net.Conn]ring.NodeID // every live connection; "" until an accepted one's first frame
	closed bool
}

// tcpConn is one outbound connection with serialized writes.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// ListenTCP starts a TCP endpoint on addr. The endpoint's NodeID is addr
// itself, so every cluster member must address it consistently.
func ListenTCP(addr string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCPEndpoint{
		ln:          ln,
		dialTimeout: 10 * time.Second,
		out:         make(map[ring.NodeID]*tcpConn),
		peerOf:      make(map[net.Conn]ring.NodeID),
	}
	t.endpoint = newEndpoint(ring.NodeID(addr), t)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the actual bound listen address (useful with ":0").
func (t *TCPEndpoint) Addr() string { return t.ln.Addr().String() }

func (t *TCPEndpoint) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.peerOf[conn] = ""
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop hands the frames of one connection up until it breaks.
func (t *TCPEndpoint) readLoop(conn net.Conn) {
	for {
		f, err := readFrame(conn)
		if err != nil {
			t.lost("", conn)
			return
		}
		// Under t.mu, so that a retired connection hands nothing more
		// up: a late frame from a peer already reported down would
		// re-arm its notification.
		t.mu.Lock()
		peer, live := t.peerOf[conn]
		if !live {
			t.mu.Unlock()
			return
		}
		if peer == "" {
			t.peerOf[conn] = f.from
		}
		t.receive(f)
		t.mu.Unlock()
	}
}

const maxFrame = 64 << 20

func readFrame(conn io.Reader) (frame, error) {
	buf, err := codec.ReadFrame(conn, func(n uint32) error {
		if n < frameFixed || n > maxFrame {
			return fmt.Errorf("transport: bad frame length %d", n)
		}
		return nil
	})
	if err != nil {
		return frame{}, err
	}
	r := codec.NewReader(buf)
	f := frame{mtype: MsgType(r.U16()), reqID: r.U64()}
	f.from = ring.NodeID(r.Fixed(int(r.U16())))
	f.payload = r.Rest()
	if err := r.Done("transport: frame"); err != nil {
		return frame{}, err
	}
	return f, nil
}

func appendFrame(dst []byte, f frame) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.wireSize()-4))
	dst = binary.BigEndian.AppendUint16(dst, uint16(f.mtype))
	dst = binary.BigEndian.AppendUint64(dst, f.reqID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.from)))
	dst = append(dst, f.from...)
	return append(dst, f.payload...)
}

// connTo returns (dialing if necessary) the outbound connection to a peer.
func (t *TCPEndpoint) connTo(to ring.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	c := t.out[to]
	t.mu.Unlock()
	if c != nil {
		return c, nil
	}
	conn, err := net.DialTimeout("tcp", string(to), t.dialTimeout)
	if err != nil {
		t.lost(to, nil)
		return nil, fmt.Errorf("%w: %v", ErrPeerDown, err)
	}
	t.mu.Lock()
	if raced, closed := t.out[to], t.closed; raced != nil || closed {
		t.mu.Unlock()
		conn.Close()
		if closed {
			return nil, ErrClosed
		}
		return raced, nil // a concurrent send dialed first
	}
	c = &tcpConn{conn: conn}
	t.out[to] = c
	t.peerOf[conn] = to
	t.mu.Unlock()
	go t.readLoop(conn)
	return c, nil
}

func (t *TCPEndpoint) send(to ring.NodeID, f frame) error {
	c, err := t.connTo(to)
	if err != nil {
		return err
	}
	buf := appendFrame(make([]byte, 0, f.wireSize()), f)
	c.mu.Lock()
	_, err = c.conn.Write(buf)
	c.mu.Unlock()
	if err != nil {
		t.lost("", c.conn)
		return fmt.Errorf("%w: %v", ErrPeerDown, err)
	}
	return nil
}

// lost retires every connection to and from a peer and reports it down. The
// peer is the one conn belongs to or, when a dial failed and there is no
// conn, the one named.
func (t *TCPEndpoint) lost(peer ring.NodeID, conn net.Conn) {
	t.mu.Lock()
	if conn != nil {
		// "" when never identified (nobody to report), and when retired
		// already (reported then).
		peer = t.peerOf[conn]
		delete(t.peerOf, conn)
		defer conn.Close()
	}
	var retired []net.Conn
	if peer != "" {
		for c, p := range t.peerOf {
			if p == peer {
				delete(t.peerOf, c)
				retired = append(retired, c)
			}
		}
		delete(t.out, peer)
	}
	t.mu.Unlock()
	if peer == "" {
		return
	}
	for _, c := range retired {
		c.Close()
	}
	t.peerDown(peer)
}

// close shuts the listener and every connection, which the peers cannot
// tell from a crash.
func (t *TCPEndpoint) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.peerOf
	t.peerOf, t.out = nil, nil
	t.mu.Unlock()
	for conn := range conns {
		conn.Close()
	}
	return t.ln.Close()
}
