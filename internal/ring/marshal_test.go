package ring

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// tableBombs are the two payloads of the issue that found this decoder: 40
// bytes whose one member claims an id of 2⁶⁴−1 bytes (the bounds check added
// it to an offset and wrapped: a slice panic on the delivery goroutine), and
// 32 bytes claiming 2²⁰ members (56 MB reserved before the first check).
func tableBombs() [][]byte {
	header := func(members uint64) []byte {
		b := make([]byte, 24, 40) // version, scheme, replication
		return binary.BigEndian.AppendUint64(b, members)
	}
	return [][]byte{
		binary.BigEndian.AppendUint64(header(1), 1<<64-1),
		header(1 << 20),
	}
}

func TestUnmarshalTableHostile(t *testing.T) {
	for i, bomb := range tableBombs() {
		if _, err := UnmarshalTable(bomb); err == nil {
			t.Errorf("bomb %d accepted", i)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = UnmarshalTable(bomb) }); allocs > 2 {
			t.Errorf("bomb %d: %v allocations, want at most 2", i, allocs)
		}
		// The least of three: TotalAlloc is process-wide, and goroutines
		// earlier tests left behind allocate too.
		grew := uint64(1 << 62)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = UnmarshalTable(bomb)
			runtime.ReadMemStats(&after)
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew > 1<<10 {
			t.Errorf("bomb %d: %d bytes allocated for a %d-byte payload", i, grew, len(bomb))
		}
	}
}

func FuzzUnmarshalTable(f *testing.F) {
	for _, n := range []int{1, 3, 16} {
		data, err := mustNew(f, n, Balanced, 2).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bomb := range tableBombs() {
		f.Add(bomb)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := UnmarshalTable(data)
		if err != nil {
			return
		}
		if cap(tab.members) > len(data) || cap(tab.entries) > len(data) {
			t.Fatalf("room for %d members and %d entries from %d bytes", cap(tab.members), cap(tab.entries), len(data))
		}
		again, err := tab.MarshalBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("an accepted table re-encodes to %x (%v), decoded from %x", again, err, data)
		}
	})
}

// TestTableGoldenBytes pins the table layout to what the commit before the
// decoder moved onto codec.Reader wrote.
func TestTableGoldenBytes(t *testing.T) {
	tab, err := New([]NodeID{"orch-001", "orch-002", "orch-003"}, Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(data); got != goldenTable {
		t.Errorf("table encodes to\n%s\nthe parent commit wrote\n%s", got, goldenTable)
	}
}

// Generated at commit baacd0b.
const goldenTable = "000000000000000100000000000000000000000000000002000000000000000300000000000000086f7263682d303033" +
	"00000000000000086f7263682d30303100000000000000086f7263682d30303200000000000000030000000000000000" +
	"000000000000000000000000000000000000000055555555555555555555555555555555555555550000000000000001" +
	"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa0000000000000002"
