package transport

import "orchestra/internal/ring"

// What follows is used only by this package's tests.

// Unhang resumes a hung node.
func (n *Network) Unhang(id ring.NodeID) {
	if p := n.port(id); p != nil {
		p.ep.pause(false)
	}
}
