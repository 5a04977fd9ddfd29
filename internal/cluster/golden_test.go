package cluster

import (
	"encoding/hex"
	"testing"
	"time"

	"orchestra/internal/kvstore"
)

// TestClusterGoldenBytes pins one encode of every cluster frame to what the
// commit before the decoders moved onto codec.Reader wrote (generated at
// baacd0b).
func TestClusterGoldenBytes(t *testing.T) {
	kv := []kvstore.KV{{Key: []byte("t/k1"), Val: []byte("v1")}, {Key: []byte("t/k2")}}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"put batch", encodeBatch([]RecordPut{{KVKey: kv[0].Key, Value: kv[0].Val}, {KVKey: kv[1].Key}}),
			"0204742f6b3102763104742f6b3200"},
		{"lease request", encodeLeaseReq(leaseOpRelease, "R", "orch-001", 1500*time.Millisecond),
			"010152086f7263682d30303100000000000005dc"},
		{"lease response", encodeLeaseResp(4, "orch-002", 20*time.Millisecond),
			"000000000000000004086f7263682d3030320000000000000014"},
		{"lease grant", encodeLeaseResp(5, "", 0),
			"010000000000000005000000000000000000"},
		{"repl status", encodeReplStatus(7, 3, 1<<40),
			"000000000000000700000000000000030000010000000000"},
		{"ship request", encodeShipReq(300, 1<<20),
			"000000000000012c0000000000100000"},
		{"ship response", encodeShipResp([]kvstore.ReplRecord{{Seq: 7, Op: 1, Payload: []byte("put")}, {Seq: 8, Op: 2}}, true, false),
			"0200000000000000070201037075740200"},
		{"ship response, truncated", encodeShipResp(nil, false, true),
			"01000000000000000000"},
		{"fetch request", encodeFetchReq([]byte("t/k1"), 1<<20, nil),
			"04742f6b310000000000100000"},
		{"fetch response", encodeFetchResp(kv, true),
			"010204742f6b3102763104742f6b3200"},
		{"digest", encodeDigest([]groupDigest{{name: "rel:R", count: 300, xor: 0xfeed, maxEpoch: 9}, {name: "t:0", count: 1}}),
			"020572656c3a52ac02000000000000feed000000000000000903743a300100000000000000000000000000000000"},
	} {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s encodes to\n%s\nthe parent commit wrote\n%s", g.name, got, g.want)
		}
	}
}
