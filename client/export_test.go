package client

import "testing"

// LowerFrameCap sets the frame cap the client enforces to n until tb ends.
func LowerFrameCap(tb testing.TB, n int64) {
	old := frameCap.Swap(n)
	tb.Cleanup(func() { frameCap.Store(old) })
}
