package obs

import (
	"encoding/hex"
	"testing"
)

// TestSpanGoldenBytes pins the span encoding to what the commit before its
// decoder moved onto codec.Reader wrote.
func TestSpanGoldenBytes(t *testing.T) {
	span := &Span{
		Name: "fragment", Node: "n3", Phase: 2,
		StartUs: 10, DurUs: 5000, Rows: 1234, Batches: 5, Bytes: 99999,
		CacheHits: 7, CacheMisses: 2,
		Children: []*Span{
			{Name: "scan.index", Phase: 1, DurUs: 100},
			{Name: "scan.pass", Phase: 1, DurUs: 4000, Rows: 1234,
				Children: []*Span{{Name: "ship.encode", DurUs: 50, Bytes: 4096}}},
		},
	}
	if got, want := hex.EncodeToString(AppendSpan(nil, span)), goldenSpan; got != want {
		t.Errorf("span encodes to\n%s\nthe parent commit wrote\n%s", got, want)
	}
}

// Generated at commit baacd0b.
const goldenSpan = "08667261676d656e74026e33020a8827d209059f8d060702020a7363616e2e696e646578000100640000000000000973" +
	"63616e2e70617373000100a01fd20900000000010b736869702e656e636f64650000003200008020000000"
