package wire

// Wire-path microbenchmarks (CI runs `-bench=Wire -benchtime=1x` as a
// smoke test; run with -benchtime=2s for real numbers): the per-batch
// encode and decode cost of a result stream. The end-to-end numbers live
// in benchmark/.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"orchestra/internal/tuple"
)

func benchResultRows(n int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.S(fmt.Sprintf("k%06d", i)),
			tuple.I(int64(i % 17)),
			tuple.I(int64(i)),
			tuple.F(float64(i) / 8),
		}
	}
	return rows
}

// BenchmarkWireBinaryBatchFrame measures the per-batch server cost:
// frame header + batch encode into a reused buffer.
func BenchmarkWireBinaryBatchFrame(b *testing.B) {
	rows := rowBatch(b, benchResultRows(1000))
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, mark := BeginFrame(frame[:0], FrameBatch)
		dst = binary.BigEndian.AppendUint64(dst, 1)
		var err error
		dst, err = tuple.AppendBatchCols(dst, rows, -1)
		if err != nil {
			b.Fatal(err)
		}
		frame, err = FinishFrame(dst, mark, MaxFrame)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

// BenchmarkWireBinaryBatchDecode measures the client-side batch decode.
func BenchmarkWireBinaryBatchDecode(b *testing.B) {
	payload, err := tuple.AppendBatchCols(nil, rowBatch(b, benchResultRows(1000)), -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.DecodeBatchAny(payload); err != nil {
			b.Fatal(err)
		}
	}
}
