package gossip

import (
	"encoding/hex"
	"testing"
)

// TestGossipGoldenBytes pins the gossip payload to what the commit before
// its decoder moved onto codec.Reader wrote (generated at baacd0b), and reads
// it back.
func TestGossipGoldenBytes(t *testing.T) {
	_, gs := mkCluster(t, 2)
	gs[0].Advance(1 << 33)
	gs[0].SeqFn(func() uint64 { return 300 })
	payload := gs[0].encodeCurrent()
	if got, want := hex.EncodeToString(payload), "0000000200000000000000000000012c"; got != want {
		t.Errorf("payload encodes to %s, the parent commit wrote %s", got, want)
	}
	if err := gs[1].receive("g0", payload); err != nil || gs[1].Current() != 1<<33 || gs[1].PeerSeqs()["g0"] != 300 {
		t.Errorf("receive: %v, epoch %d, seqs %v", err, gs[1].Current(), gs[1].PeerSeqs())
	}
	for cut := 0; cut < len(payload); cut++ {
		if gs[1].receive("g0", payload[:cut]) == nil {
			t.Errorf("accepted a payload cut to %d bytes", cut)
		}
	}
	if gs[1].receive("g0", append(payload, 0)) == nil {
		t.Error("accepted a payload with a trailing byte")
	}
}
